"""Benchmark of the ``hqc`` command line: sweep, scan and optimize workloads.

Usage (from the repository root):

    python3 hqcbench/run.py --workload sweep|scan|optimize --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in;
nothing is installed. Inputs are generated from ``--seed``; each workload
runs whole passes of in-process ``hqc.cli.main(argv)`` jobs for about
``--seconds`` seconds and checks every output outside the timed region.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time
of fresh interpreters that import ``hqc`` and generate the inputs),
``peak_rss_mb``, ``job_ref`` (a job's wall time in units of the reference
loop's, see :func:`reference_s`), ``states_per_ref`` (states processed per
reference-loop time) and ``value_mean`` (mean headline value of one pass's
outputs). The report line before it gives the same job times in seconds:
their mean, median and 90th percentile, the states per second and the
reference loop's own time.

``--trace 1`` alternates untraced and traced passes and prints per-layer
metrics per traced pass (see ``layers.py``), with the tracing overhead as
the difference of their median wall times; the spans are saved under
``.hqcbench/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries provenance and the sample counts.
"""

from __future__ import annotations

import os

# One BLAS thread per process, so the 2-worker sweep runs two compute threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import layers
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".hqcbench"
SETUP_REPS = 7
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "job_ref": "ref", "states_per_ref": "1/ref", "value_mean": "1"}

# The host's speed drifts by tens of per cent within a run and between runs
# minutes apart, for every kind of code alike. A fixed numpy computation,
# timed before each call, slows down with it: a call's time over the
# reference's time measures the program, not the host's current speed.
_REF_RNG = numpy.random.default_rng(0)
_REF_SMALL = [m + m.T for m in _REF_RNG.standard_normal((64, 4, 4))]
_REF_BATCH = (lambda g: g @ g.transpose(0, 2, 1))(_REF_RNG.standard_normal((1024, 4, 4)))


def reference_s() -> float:
    """Wall time of the reference loop: small and batched 4x4 linear algebra."""
    started = time.perf_counter()
    for m in _REF_SMALL:
        numpy.linalg.eigvalsh(m)
        numpy.linalg.svd(m[:3, :3], compute_uv=False)
        m @ m
    numpy.linalg.eigvalsh(_REF_BATCH)
    return time.perf_counter() - started


def import_hqc():
    """Import ``hqc`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "hqc" / "__init__.py").is_file():
        raise RuntimeError(f"no hqc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hqc
    import hqc.cli

    if Path(hqc.__file__).resolve().parent != SRC / "hqc":
        raise RuntimeError(f"imported hqc from {hqc.__file__}, expected {SRC / 'hqc'}")
    return hqc


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import hqc and generate the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        # A blocking wait returns as the child exits; subprocess's own timeout
        # polls every 50 ms, which would quantise the measurement.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - started)
        if code != 0:
            raise RuntimeError(f"set-up run exited with {code}")
    return times


def _openblas(module_dir: str, libs: str) -> dict:
    """Version and thread count of the OpenBLAS a numpy/scipy wheel bundles."""
    for path in glob.glob(os.path.join(module_dir, "..", libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving it; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(hqc, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(os.path.dirname(numpy.__file__), "numpy.libs"),
        "openblas_scipy": _openblas(os.path.dirname(scipy.__file__), "scipy.libs"),
        "kernel": hqc.kernels.ACTIVE_KERNEL,
        "hqc": hqc.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def run_passes(jobs, seconds: float, done: list, refs: list | None = None) -> list[float]:
    """Run whole passes until about ``seconds`` have gone; return each pass's wall time.

    Appends each job's results to ``done`` and, when ``refs`` is given, the
    time of a reference loop run just before each call. Stops once another
    pass would end further past ``seconds`` than this one ends short of it.
    Outputs equal to an earlier one share its strings, so memory stays that
    of one pass however many run.
    """
    walls: list[float] = []
    outputs: dict[tuple, workloads.Result] = {}
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for job in jobs:
            results = []
            for call in job:
                if refs is not None:
                    refs.append(reference_s())
                results.append(workloads.execute(call))
            done.append(results)
        walls.append(time.perf_counter() - pass_started)
        for res in (r for job_results in done[-len(jobs) :] for r in job_results):
            first = outputs.setdefault(_output_key(res), res)
            res.stdout, res.csv_text = first.stdout, first.csv_text
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * walls[-1] >= seconds:
            return walls


def _output_key(res) -> tuple:
    return (res.call.argv, res.code, res.error, res.stdout, res.csv_text)


def check_all(workload: str, results: list, seed: int) -> int:
    """Check each distinct output once; return the number of failed calls."""
    verdicts: dict[tuple, list[str]] = {}
    for res in results:
        key = _output_key(res)
        if key not in verdicts:
            verdicts[key] = workloads.check(workload, res, seed)
        res.problems = verdicts[key]
    return sum(1 for res in results if res.problems)


def untraced(workload: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    setup = measure_setup(workload, seed)
    jobs = workloads.prepare(workload, seed, workdir)
    warmup: list = []
    run_passes(jobs, 0.0, warmup)  # one untimed pass, so lazy imports and caches settle first
    done: list = []
    refs: list[float] = []
    run_passes(jobs, seconds, done, refs)
    timed = [res for job in done for res in job]
    results = [res for job in warmup for res in job] + timed
    failed = check_all(workload, results, seed)
    job_times = [sum(res.seconds for res in job) for job in done]
    by_job = [job_times[k :: len(jobs)] for k in range(len(jobs))]
    # Means over the whole run: each reference loop ran right before a call,
    # so the calls and the references see the same drift of the host's speed.
    job_s = statistics.fmean(job_times)
    states_per_s = sum(res.call.states for res in timed) / sum(job_times)
    ref_s = statistics.fmean(refs)
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_ref": job_s / ref_s,
        "states_per_ref": states_per_s * ref_s,
        "value_mean": workloads.value_mean(workload, [res for job in done[: len(jobs)] for res in job]),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    by_label: dict[str, list[float]] = {}
    for res in timed:
        by_label.setdefault(res.call.label, []).append(res.seconds)
    report = {
        "setup_samples_s": setup,
        "jobs": len(done),
        "jobs_per_pass": len(jobs),
        "passes": len(done) // len(jobs),
        "reference_s": ref_s,
        "job_s_mean": job_s,
        "job_s_p50": statistics.mean(float(numpy.percentile(t, 50)) for t in by_job),
        "job_s_p90": statistics.mean(float(numpy.percentile(t, 90)) for t in by_job),
        "states_per_s": states_per_s,
        "call_s_by_input": {label: statistics.median(t) for label, t in by_label.items()},
        "failures": _failures(results),
    }
    return _result(results, failed, metrics), report


def traced(workload: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    jobs = workloads.prepare(workload, seed, workdir)
    # Untraced and traced passes alternate, so that their difference, the
    # tracing overhead, is not a drift of the machine's speed between them.
    untraced_done: list = []
    traced_done: list = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracer = Tracer()
    started = time.perf_counter()
    while True:
        untraced_walls += run_passes(jobs, 0.0, untraced_done)
        layers.install(tracer)
        try:
            traced_walls += run_passes(jobs, 0.0, traced_done)
        finally:
            tracer.unpatch()
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * (untraced_walls[-1] + traced_walls[-1]) >= seconds:
            break
    results = [res for job in untraced_done + traced_done for res in job]
    failed = check_all(workload, results, seed)
    run = layers.Run(
        spans=tracer.table(),
        traced_walls=tuple(traced_walls),
        untraced_pass_s=statistics.median(untraced_walls),
        starts_reported=workloads.starts_reported([res for job in traced_done for res in job]),
    )
    metrics, missing = layers.measure(run, layers.absent_spans(tracer))
    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans-{workload}-seed{seed}.npz"
    tracer.save(str(spans_file))
    report = {
        "absent_targets": tracer.absent,
        "absent_metrics": missing,
        "traced_passes": run.passes,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failures": _failures(results),
    }
    return _result(results, failed, metrics), report


def _result(results: list, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def _failures(results: list) -> list[str]:
    return sorted({f"{res.call.label}: {p}" for res in results for p in res.problems})[:20]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "scan", "optimize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = str(WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        hqc = import_hqc()
    except (RuntimeError, ImportError) as exc:
        print(f"hqcbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            workloads.prepare(args.workload, args.seed, workdir)
            return 0
        run = traced if args.trace else untraced
        result, report = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["provenance"] = provenance(hqc, args.seed)
    print(json.dumps(report, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
