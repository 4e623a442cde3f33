"""Measure the baseline: one untraced and one traced run per workload.

Usage (from the repository root):

    python3 hqcbench/baseline.py

Runs seed 1 for ``BENCHMARK.json``'s ``run_seconds`` and writes
``hqcbench/baseline.json``: the end-to-end and per-layer metrics of every
workload, each per-layer metric's predicted effect, and the traced numbers
set beside the hand-timed baseline that ``ROADMAP.md`` records (its
"Baseline" section), with their ratio.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 1
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
# ROADMAP's per-chunk figures are for full chunks of the sweep's default size.
CHUNK_STATES = 65536

# Hand-timed figures from ROADMAP.md's baseline (2 cores, numpy kernel).
HAND_TIMED = {
    "sweep: sampling per chunk (ms)": 68.0,
    "sweep: stats kernel per chunk (ms)": 245.0,
    "sweep: binning per chunk (ms)": 3.0,
    "sweep: violation scan per chunk (ms)": 1.0,
    "sweep: 10^6 states, 2 workers (s)": 2.9,
    "scan: per grid point (us)": 635.0,
    "scan: classify per call (us)": 510.0,
    "optimize: per objective evaluation (us)": 100.0,
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=600).stdout.splitlines()
    report, result = json.loads(out[-2]), json.loads(out[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs failed their checks: {report.get('failures')}")
    return report, {k: v["value"] for k, v in result["metrics"].items()}


def traced_figures(runs: dict) -> dict:
    """The traced (and, where the trace inflates a fine-grained span, untraced) figures."""
    sweep, scan, opt = runs["sweep"]["layers"], runs["scan"]["layers"], runs["optimize"]["layers"]
    chunk = CHUNK_STATES / workloads.SWEEP_N  # share of a pass's states in one full chunk
    evals = opt["filtering.objective_evals"]
    optimize_calls = runs["optimize"]["report"]["jobs_per_pass"]
    opt_call_s = runs["optimize"]["report"]["job_s_mean"]
    return {
        "sweep: sampling per chunk (ms)": 1e3 * sweep["montecarlo.sampling.s"] * chunk,
        "sweep: stats kernel per chunk (ms)": 1e3 * sweep["kernels.sweep_stats.s"] * chunk,
        "sweep: binning per chunk (ms)": 1e3 * sweep["montecarlo.bin.s"] * chunk,
        "sweep: violation scan per chunk (ms)": 1e3 * sweep["montecarlo.violation_scan.s"] * chunk,
        "sweep: 10^6 states, 2 workers (s)": 1e6 / runs["sweep"]["report"]["states_per_s"],
        "scan: per grid point (us)": 1e6 / runs["scan"]["report"]["states_per_s"],
        "scan: classify per call (us)": scan["criteria.classify.us"],
        "optimize: per objective evaluation (us)": opt["filtering.eval_us"],
        "optimize: per Nelder-Mead evaluation, untraced (us)": 1e6
        * (optimize_calls / runs["optimize"]["report"]["states_per_s"])
        / evals,
        f"optimize: one {workloads.OPTIMIZE_STARTS}-start optimisation (s)": opt_call_s,
    }


def main() -> int:
    runs = {}
    for workload in workloads.WORKLOADS:
        report, end_to_end = _run(workload, SEED, SECONDS, 0)
        trace_report, per_layer = _run(workload, SEED, SECONDS, 1)
        runs[workload] = {
            "end_to_end": end_to_end,
            "layers": per_layer,
            "report": {**report, **{k: v for k, v in trace_report.items() if k != "provenance"}},
        }
    measured = traced_figures(runs)
    comparison = {
        name: {
            "hand_timed": HAND_TIMED.get(name),
            "traced": value,
            "ratio": value / HAND_TIMED[name] if name in HAND_TIMED else None,
        }
        for name, value in measured.items()
    }
    doc = {
        "seed": SEED,
        "seconds": SECONDS,
        "provenance": runs["sweep"]["report"]["provenance"],
        "comparison_with_roadmap": comparison,
        "workloads": {
            w: {
                "end_to_end": r["end_to_end"],
                "per_layer": r["layers"],
                "trace_overhead_s": r["layers"].get("trace.overhead_s"),
                "absent_metrics": r["report"].get("absent_metrics", []),
            }
            for w, r in runs.items()
        },
        "predictions": layers.predictions(),
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in comparison.items():
        print(f"{name:55s} hand {row['hand_timed']!s:>8}  traced {row['traced']:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
