"""Per-layer metrics: what the traced run wraps, what it reports, and what each should move.

Layers are the ``hqc`` package modules. :data:`TARGETS` names the
module-level functions the tracer wraps; :data:`METRICS` turns the spans
into per-pass numbers. Each metric records the end-to-end metric and
workload it should move (``moves``) and the workloads where it predicts
no change (``still``), so a later change can be judged against the
prediction made before it was written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tracing import SpanTable, Tracer

SWEEP = ("states_per_ref", "sweep")
SCAN = ("states_per_ref", "scan")
SCAN_JOB = ("job_ref", "scan")
OPTIMIZE = ("job_ref", "optimize")
ALL_JOBS = (("job_ref", "sweep"), SCAN_JOB, OPTIMIZE)


def _annotate_states(tracer: Tracer):
    def decorate(sweep_stats):
        def sweep_stats_annotated(g, *args, **kwargs):
            tracer.annotate(states=len(g))
            return sweep_stats(g, *args, **kwargs)

        return sweep_stats_annotated

    return decorate


def _annotate_workers(tracer: Tracer):
    def decorate(run_sweep):
        def run_sweep_annotated(config, *args, **kwargs):
            tracer.annotate(workers=config.workers)
            return run_sweep(config, *args, **kwargs)

        return run_sweep_annotated

    return decorate


def _trace_objective(tracer: Tracer):
    """Trace each objective evaluation and keep what a start achieved.

    The first evaluation of a Nelder-Mead run is at its start point, so
    for start 0 (the identity filter) it is the optimiser's initial best.
    """

    def decorate(minimize):
        def minimize_annotated(fun, x0, *args, **kwargs):
            objective = tracer.wrap("filtering.objective", fun)
            first: list[float] = []

            def fun_first(x, *a):
                value = objective(x, *a)
                if not first:
                    first.append(float(value))
                return value

            res = minimize(fun_first, x0, *args, **kwargs)
            tracer.annotate(f0=first[0] if first else math.nan, fun=float(res.fun))
            return res

        return minimize_annotated

    return decorate


# (target as "module.attr", span name, decorator factory or None)
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("hqc.cli.main", "cli.main", None),
    ("hqc.serde.load_state_json", "serde.load_state_json", None),
    ("hqc.serde.envelope_to_csv", "serde.envelope_to_csv", None),
    ("hqc.serde.scan_rows_to_csv", "serde.scan_rows_to_csv", None),
    ("hqc.montecarlo.run_sweep", "montecarlo.run_sweep", _annotate_workers),
    ("hqc.montecarlo._run_chunk", "montecarlo.chunk", None),
    ("hqc.montecarlo.sweep_stats", "kernels.sweep_stats", _annotate_states),
    ("hqc.montecarlo._bin_side", "montecarlo.bin", None),
    ("hqc.montecarlo._violations_in_chunk", "montecarlo.violation_scan", None),
    ("hqc.families.scan_family", "families.scan_family", None),
    ("hqc.families.rho_m", "families.build", None),
    ("hqc.families.rho_mm", "families.build", None),
    ("hqc.families.rho_qd", "families.build", None),
    ("hqc.criteria.classify", "criteria.classify", None),
    ("hqc.criteria.compute_ellipsoid", "ellipsoid.compute_ellipsoid", None),
    ("hqc.criteria.from_r_picture", "states.from_r_picture", None),
    ("hqc.criteria.ppt_entangled", "correlations.ppt_entangled", None),
    ("hqc.filtering.normal_form_spectrum", "filtering.normal_form_spectrum", None),
    ("hqc.filtering.optimize_one_sided", "filtering.optimize_one_sided", None),
    ("hqc.filtering.minimize", "filtering.minimize", _trace_objective),
    ("hqc.filtering.apply_one_sided", "filtering.apply_one_sided", None),
    ("hqc.states.validate_state", "states.validate_state", None),
    ("hqc.states.to_r_picture", "states.to_r_picture", None),
    ("hqc.correlations.chsh_max", "correlations.chsh_max", None),
    ("hqc.correlations.f3_max", "correlations.f3_max", None),
]


def install(tracer: Tracer) -> None:
    for target, span_name, decorator in TARGETS:
        tracer.patch(target, span_name, decorator(tracer) if decorator else None)


def absent_spans(tracer: Tracer) -> set[str]:
    """Span names none of whose targets could be wrapped."""
    found = {span for target, span, _ in TARGETS if target not in tracer.absent}
    return {span for _, span, _ in TARGETS} - found


@dataclass(frozen=True)
class Run:
    """What a traced run measured: its spans and what it counted outside them."""

    spans: SpanTable
    traced_walls: tuple[float, ...]  # wall time of each traced pass
    untraced_pass_s: float  # median wall time of the untraced passes run between them
    starts_reported: int

    @property
    def passes(self) -> int:
        return len(self.traced_walls)

    def total(self, span: str) -> float:
        return float(self.spans.duration[self.spans.rows(span)].sum())

    def self_total(self, span: str) -> float:
        return float(self.spans.self_time[self.spans.rows(span)].sum())

    def count(self, span: str) -> int:
        return len(self.spans.rows(span))

    def attr_sum(self, span: str, key: str) -> float:
        return float(sum(self.spans.attrs.get(int(i), {}).get(key, 0) for i in self.spans.rows(span)))

    def per_pass(self, x: float) -> float:
        return x / self.passes


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _busy_ratio(run: Run) -> float:
    capacity = sum(
        run.spans.duration[i] * run.spans.attrs.get(int(i), {}).get("workers", 1)
        for i in run.spans.rows("montecarlo.run_sweep")
    )
    return _ratio(run.total("montecarlo.chunk"), capacity)


def _improving_start_ratio(run: Run) -> float:
    """Starts whose result beat the best so far, over starts run.

    Replays the optimiser's own rule: the best starts at the identity
    filter's value and a start improves it when it exceeds it by 1e-15.
    """
    t = run.spans
    minimize_rows = t.rows("filtering.minimize")
    improved = 0
    for call in t.rows("filtering.optimize_one_sided"):
        best = None
        for i in minimize_rows[t.parent[minimize_rows] == call]:
            attrs = t.attrs.get(int(i), {})
            if best is None:
                best = -attrs.get("f0", math.nan)
            if -attrs.get("fun", math.nan) > best + 1e-15:
                best = -attrs["fun"]
                improved += 1
    return _ratio(improved, len(minimize_rows))


def _zero_success(run: Run) -> int:
    rows = run.spans.rows("filtering.apply_one_sided")
    return sum(run.spans.errors.get(int(i)) == "ZeroSuccessProbability" for i in rows)


def _top_span_share(run: Run) -> float:
    t = run.spans
    roots = (t.parent < 0) & (t.thread == t.main_thread)
    return _ratio(float(t.duration[roots].sum()), sum(run.traced_walls))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]  # spans the value is computed from
    value: Callable[[Run], float]
    moves: tuple[tuple[str, str], ...]  # (end-to-end metric, workload) it should move
    still: tuple[str, ...]  # workloads where it predicts no change
    minor: tuple[tuple[str, str], ...] = ()  # moves, but as a small share


def _time(name: str, span: str, moves, still, minor=()) -> LayerMetric:
    return LayerMetric(name, "s", "lower", (span,), lambda r: r.per_pass(r.total(span)), moves, still, minor)


def _self(name: str, span: str, moves, still, minor=()) -> LayerMetric:
    return LayerMetric(name, "s", "lower", (span,), lambda r: r.per_pass(r.self_total(span)), moves, still, minor)


def _calls(name: str, span: str, moves, still, minor=()) -> LayerMetric:
    return LayerMetric(name, "count", "lower", (span,), lambda r: r.per_pass(r.count(span)), moves, still, minor)


_SWEEP_STILL = ("scan", "optimize")
_CLASSIFY = dict(moves=(SCAN, SCAN_JOB), still=("sweep",), minor=(OPTIMIZE,))
_OPTIMIZER = dict(moves=(OPTIMIZE,), still=("sweep", "scan"))
# states and correlations primitives run per point in the scan as well as per evaluation
_PRIMITIVE = dict(moves=(OPTIMIZE, SCAN, SCAN_JOB), still=("sweep",))

METRICS: list[LayerMetric] = [
    # sweep layers
    _time("kernels.sweep_stats.s", "kernels.sweep_stats", (SWEEP,), _SWEEP_STILL),
    LayerMetric(
        "kernels.sweep_stats.states_per_s",
        "1/s",
        "higher",
        ("kernels.sweep_stats",),
        lambda r: _ratio(r.attr_sum("kernels.sweep_stats", "states"), r.total("kernels.sweep_stats")),
        (SWEEP,),
        _SWEEP_STILL,
    ),
    _calls("montecarlo.chunks", "montecarlo.chunk", (SWEEP,), _SWEEP_STILL),
    _self("montecarlo.sampling.s", "montecarlo.chunk", (SWEEP,), _SWEEP_STILL),
    _time("montecarlo.bin.s", "montecarlo.bin", (SWEEP,), _SWEEP_STILL),
    _time("montecarlo.violation_scan.s", "montecarlo.violation_scan", (SWEEP,), _SWEEP_STILL),
    LayerMetric(
        "montecarlo.busy_ratio",
        "ratio",
        "higher",
        ("montecarlo.chunk", "montecarlo.run_sweep"),
        _busy_ratio,
        (SWEEP,),
        _SWEEP_STILL,
    ),
    _time("serde.envelope_to_csv.s", "serde.envelope_to_csv", (SWEEP,), _SWEEP_STILL),
    # classify layers
    _calls("criteria.classify.calls", "criteria.classify", **_CLASSIFY),
    _self("criteria.classify.self_s", "criteria.classify", **_CLASSIFY),
    LayerMetric(
        "criteria.classify.us",
        "us",
        "lower",
        ("criteria.classify",),
        lambda r: 1e6 * _ratio(r.total("criteria.classify"), r.count("criteria.classify")),
        **_CLASSIFY,
    ),
    _calls("ellipsoid.compute_ellipsoid.calls", "ellipsoid.compute_ellipsoid", **_CLASSIFY),
    _time("ellipsoid.compute_ellipsoid.s", "ellipsoid.compute_ellipsoid", **_CLASSIFY),
    _calls("filtering.normal_form_spectrum.calls", "filtering.normal_form_spectrum", **_CLASSIFY),
    _time("filtering.normal_form_spectrum.s", "filtering.normal_form_spectrum", **_CLASSIFY),
    _time("states.from_r_picture.s", "states.from_r_picture", **_CLASSIFY),
    _time("correlations.ppt_entangled.s", "correlations.ppt_entangled", **_CLASSIFY),
    _time("families.build.s", "families.build", (SCAN, SCAN_JOB), ("sweep", "optimize")),
    _self("families.scan_family.self_s", "families.scan_family", (SCAN, SCAN_JOB), ("sweep", "optimize")),
    _time("serde.scan_rows_to_csv.s", "serde.scan_rows_to_csv", (SCAN, SCAN_JOB), ("sweep", "optimize")),
    # optimiser layers
    _calls("filtering.minimize.calls", "filtering.minimize", **_OPTIMIZER),
    LayerMetric(
        "filtering.starts_reported",
        "count",
        "lower",
        (),  # read from the CLI's output, not from spans
        lambda r: r.per_pass(r.starts_reported),
        **_OPTIMIZER,
    ),
    _calls("filtering.objective_evals", "filtering.objective", **_OPTIMIZER),
    LayerMetric(
        "filtering.eval_us",
        "us",
        "lower",
        ("filtering.objective",),
        lambda r: 1e6 * _ratio(r.total("filtering.objective"), r.count("filtering.objective")),
        **_OPTIMIZER,
    ),
    _time("filtering.apply_one_sided.s", "filtering.apply_one_sided", **_OPTIMIZER),
    LayerMetric(
        "filtering.zero_success",
        "count",
        "lower",
        ("filtering.apply_one_sided",),
        lambda r: r.per_pass(_zero_success(r)),
        **_OPTIMIZER,
    ),
    LayerMetric(
        "filtering.improving_start_ratio",
        "ratio",
        "higher",
        ("filtering.minimize", "filtering.optimize_one_sided"),
        _improving_start_ratio,
        **_OPTIMIZER,
    ),
    _calls("states.validate_state.calls", "states.validate_state", **_PRIMITIVE),
    _time("states.validate_state.s", "states.validate_state", **_PRIMITIVE),
    _calls("states.to_r_picture.calls", "states.to_r_picture", **_PRIMITIVE),
    _time("states.to_r_picture.s", "states.to_r_picture", **_PRIMITIVE),
    _calls("correlations.chsh_max.calls", "correlations.chsh_max", **_PRIMITIVE),
    _time("correlations.chsh_max.s", "correlations.chsh_max", **_PRIMITIVE),
    _time("correlations.f3_max.s", "correlations.f3_max", **_PRIMITIVE),
    # every workload
    _self("cli.main.self_s", "cli.main", ALL_JOBS, ()),
    _time("serde.load_state_json.s", "serde.load_state_json", (OPTIMIZE,), ("sweep", "scan")),
    # the tracer itself: no end-to-end effect
    LayerMetric(
        "trace.overhead_s",
        "s",
        "lower",
        ("cli.main",),
        lambda r: float(np.median(r.traced_walls)) - r.untraced_pass_s,
        (),
        ("sweep", "scan", "optimize"),
    ),
    LayerMetric(
        "trace.top_span_share",
        "ratio",
        "higher",
        ("cli.main",),
        _top_span_share,
        (),
        ("sweep", "scan", "optimize"),
    ),
]


def measure(run: Run, absent: set[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of ``run`` and the names left out because a span is absent."""
    metrics, missing = {}, []
    for m in METRICS:
        if absent.intersection(m.spans):
            missing.append(m.name)
            continue
        metrics[m.name] = {"value": float(m.value(run)), "unit": m.unit}
    return metrics, missing


def predictions() -> dict:
    """metric -> where it should move and where it should not, for the docs."""
    return {
        m.name: {
            "moves": [f"{e2e} on {w}" for e2e, w in m.moves],
            "minor_share_of": [f"{e2e} on {w}" for e2e, w in m.minor],
            "no_change_on": list(m.still),
        }
        for m in METRICS
    }

