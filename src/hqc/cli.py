"""Command-line front end.

Subcommands: ``analyze`` (full report for one state), ``certify``
(one-sided inaccessibility certificate: one ``{A,B}_INACCESSIBLE_*`` flag
of :func:`hqc.criteria.classify`), ``scan`` (family grid scan to
CSV), ``sweep`` (random-state conjecture sweep to envelope CSV), and
``filter`` (apply or optimise local filters).

Conventions: JSON results on stdout, CSV data to files, diagnostics on
stderr. Exit codes: 0 success, 2 input or output error (a stdout closed
by its reader reports on stderr), 3 a sweep found a conjecture
counterexample. Every run is determined by its argument
vector; the only environment input is the optional HQC_SEED seed default
(overridden by --seed), and the output metadata records which source was
used.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import os
import sys
import time

import numpy as np

from . import serde
from .criteria import VIOLATION_MARGIN, Thresholds, classify, classify_batch, classify_batch_with_masks
from .ellipsoid import Party, compute_ellipsoid
from .errors import DomainError, HqcError
from .families import Family, qd_centre_boundary, scan_family
from .filtering import Objective, apply_filters, identity_filter, optimize_one_sided
from .kernels import ACTIVE_KERNEL
from .montecarlo import DEFAULT_RANK_MIX, SweepConfig, run_sweep
from .states import DEFAULT_TOL, DensityMatrix, RMatrix, SeededRng, from_r_picture, to_r_picture


def _emit(payload: dict) -> None:
    serde.write_json(payload, sys.stdout)


def _load_state(args: argparse.Namespace) -> tuple[DensityMatrix, RMatrix]:
    """The input state and its picture. An R-CSV's picture is the R it gives, checked by rebuilding rho."""
    if args.format == "json":
        rho = serde.load_state_json(args.state_file, args.tol)
        return rho, to_r_picture(rho)
    r = serde.load_rmatrix_csv(args.state_file)
    return from_r_picture(r, args.tol), r


def _thresholds(args: argparse.Namespace) -> Thresholds:
    return Thresholds(c_chsh=args.c_chsh, c_f3=args.c_f3)


def _parse_grid(spec: str, name: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"--{name} must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"--{name}: {exc}") from exc
    if count < 1:
        raise DomainError(f"--{name} count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _parse_rank_mix(spec: str) -> tuple[float, float, float, float]:
    weights = [0.0, 0.0, 0.0, 0.0]
    seen = set()
    for item in spec.split(","):
        rank, _, weight = item.partition(":")
        try:
            idx = int(rank)
            w = float(weight)
        except ValueError as exc:
            raise DomainError(f"--rank-mix entries must be rank:weight, got {item!r}") from exc
        if not 1 <= idx <= 4:
            raise DomainError(f"--rank-mix rank must be 1..4, got {idx}")
        if idx in seen:
            raise DomainError(f"--rank-mix gives rank {idx} more than once")
        seen.add(idx)
        weights[idx - 1] = w
    return tuple(weights)  # type: ignore[return-value]


def _resolve_seed(args: argparse.Namespace) -> tuple[int, str]:
    if args.seed is not None:
        return args.seed, "flag"
    env = os.environ.get("HQC_SEED")
    if env is not None:
        try:
            return int(env), "env:HQC_SEED"
        except ValueError as exc:
            raise DomainError(f"HQC_SEED must be an integer, got {env!r}") from exc
    return 0, "default"


def _refuted(flags: frozenset[str], parties: tuple[str, ...], objectives: list[Objective]) -> dict:
    """``{"refuted": [...]}``: the certificates among ``flags`` of ``parties`` for ``objectives``, the
    objectives a value above 1 + VIOLATION_MARGIN shows the centre-bound conjecture to fail on;
    ``{}`` when there are none."""
    refuted = sorted(flags & {f"{p}_INACCESSIBLE_{o.value}" for p in parties for o in objectives})
    return {"refuted": refuted} if refuted else {}


def _cmd_analyze(args: argparse.Namespace) -> int:
    _, r = _load_state(args)
    report = classify(r, _thresholds(args))
    violated = [o for o, v in ((Objective.CHSH, report.b), (Objective.F3, report.f3)) if v > 1.0 + VIOLATION_MARGIN]
    _emit(
        {
            "report": serde.report_to_dict(report),
            "ellipsoid_a": serde.ellipsoid_to_dict(compute_ellipsoid(r, Party.A)),
            "ellipsoid_b": serde.ellipsoid_to_dict(compute_ellipsoid(r, Party.B)),
            **_refuted(report.flags, ("A", "B", "AB"), violated),
        }
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    _, r = _load_state(args)
    th = _thresholds(args)
    party = Party[args.party]
    objective = Objective[args.objective.upper()]
    (report,), ok = classify_batch_with_masks(r.r[None], th)
    _emit(
        {
            "party": party.value,
            "objective": objective.value,
            "certified_inaccessible": f"{party.value}_INACCESSIBLE_{objective.value}" in report.flags,
            "witness_centre": f"c_{party.other().value.lower()}",
            "witness_centre_magnitude": report.c_b if party is Party.A else report.c_a,
            "threshold": th.cutoff(objective),
            "witness_degenerate": not ok[list(Party).index(party.other()), 0],
            "conjecture_conditional": report.conjecture_conditional,
        }
    )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    family = Family(args.family)
    th = _thresholds(args)
    theta_grid = _parse_grid(args.theta, "theta") if family is not Family.QD else np.array([0.0])
    p_grid = _parse_grid(args.p, "p")
    started = time.perf_counter()
    rows = scan_family(family, theta_grid, p_grid, th)
    classified = time.perf_counter()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serde.scan_rows_to_csv(rows))
    written = time.perf_counter()
    payload = {
        "family": family.value,
        "rows": len(rows),
        "out": args.out,
        "thresholds": {"c_chsh": th.c_chsh, "c_f3": th.c_f3},
    }
    if family is Family.QD:
        payload["boundaries"] = {
            "chsh_inaccessible_below_p": qd_centre_boundary(th.c_chsh),
            "f3_inaccessible_below_p": qd_centre_boundary(th.c_f3),
        }
    _emit(payload)
    stages = f"classify {classified - started:.4f}s; csv {written - classified:.4f}s"
    print(f"scan: {len(rows)} points; {stages}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    seed, seed_source = _resolve_seed(args)
    config = SweepConfig(
        n=args.n,
        seed=seed,
        rank_mix=_parse_rank_mix(args.rank_mix) if args.rank_mix else DEFAULT_RANK_MIX,
        bins=args.bins,
        workers=args.workers,
    )
    summary = run_sweep(config)
    out_csv = args.out_prefix + "envelope.csv"
    os.makedirs(os.path.dirname(out_csv) or ".", exist_ok=True)
    with open(out_csv, "w", encoding="utf-8") as fh:
        fh.write(serde.envelope_to_csv(summary.bins))
    dump_paths = []
    if summary.violations:
        states_dir = os.path.join(os.path.dirname(args.out_prefix) or ".", "states")
        os.makedirs(states_dir, exist_ok=True)
        dump_paths = [serde.dump_violation_json(v, states_dir) for v in summary.violations]
    _emit(
        {
            "n": config.n,
            "seed": config.seed,
            "seed_source": seed_source,
            "bins": config.bins,
            "workers": config.workers,
            "kernel": ACTIVE_KERNEL,
            "metadata": summary.metadata,
            "degenerate": dict(zip(("c_a", "c_b"), summary.bins.degenerate.tolist())),
            "violations": len(summary.violations),
            "violation_dumps": dump_paths,
            "envelope_csv": out_csv,
        }
    )
    stages = "".join(f"; {stage} {s:.2f}s" for stage, s in summary.stage_seconds.items())
    print(
        f"sweep: {config.n} samples in {summary.runtime_seconds:.2f}s ({ACTIVE_KERNEL} kernel{stages})", file=sys.stderr
    )
    return 3 if summary.violations else 0


def _cmd_filter(args: argparse.Namespace) -> int:
    if args.optimize and (args.filter_a or args.filter_b):
        raise DomainError("--optimize excludes --filter-a/--filter-b")
    rho, r_before = _load_state(args)
    th = _thresholds(args)
    try:
        if args.optimize:
            party_name, objective_name = args.optimize
            if party_name not in ("A", "B"):
                raise DomainError(f"--optimize party must be A or B, got {party_name!r}")
            if objective_name.upper() not in ("CHSH", "F3"):
                raise DomainError(f"--optimize objective must be chsh or f3, got {objective_name!r}")
            seed, seed_source = _resolve_seed(args)
            # --starts and --seed select nothing: the search draws no random starts; both are still validated
            if args.starts < 1:
                raise DomainError(f"starts must be >= 1, got {args.starts}")
            SeededRng(seed)
            res = optimize_one_sided(
                rho,
                Party[party_name],
                Objective[objective_name.upper()],
                max_iters=args.max_iters,
                tol=args.tol,
                picture=r_before,
            )
            filtered, prob, r_after = res.filtered_state, res.success_probability, res.filtered_picture
            step = {"optimizer": serde.one_sided_result_to_dict(res), "seed_source": seed_source}
        else:
            fa = serde.load_filter_json(args.filter_a) if args.filter_a else identity_filter()
            fb = serde.load_filter_json(args.filter_b) if args.filter_b else identity_filter()
            filtered, prob = apply_filters(rho, fa, fb, args.tol)
            r_after = to_r_picture(filtered)
            step = {"filter_a": serde.filter_to_dict(fa), "filter_b": serde.filter_to_dict(fb)}
    except (HqcError, OSError):
        classify(r_before, th)  # the input's report comes first: an input it rejects fails with its error
        raise
    try:
        # both reports in one batch; each row's values do not depend on the batch it is in
        before, after = classify_batch(np.stack([r_before.r, r_after.r]), th)
    except HqcError:
        classify(r_before, th)  # each row alone, in order, raises the error it raises as a batch of one
        classify(r_after, th)
        raise
    payload = {
        "before": serde.report_to_dict(before),
        **step,
        "success_probability": prob,
        "after": serde.report_to_dict(after),
    }
    if args.optimize and res.value > 1.0 + VIOLATION_MARGIN:
        # the certificates of the input that its optimum violates
        payload.update(_refuted(before.flags, (res.party.value, "AB"), [res.objective]))
    payload["filtered_state"] = serde.state_to_dict(filtered)
    if args.out:
        serde.dump_state_json(filtered, args.out)
        payload["out"] = args.out
    _emit(payload)
    if args.optimize:
        search, verify = res.stage_seconds["search"], res.stage_seconds["verify"]
        if res.objective is Objective.F3:
            done = f"exact F3 solve, {res.evaluations} secular iterations; search {search:.6f}s"
        else:  # the search's seconds include the seed's solves, so they are no per-evaluation cost
            done = f"exact seed and one polish, {res.evaluations} evaluations; search {search:.4f}s"
        print(f"filter: {done}; verify {verify:.4f}s", file=sys.stderr)
    return 0


def _add_state_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("state_file", help="input state file")
    p.add_argument("--format", choices=["json", "rcsv"], default="json", help="state file format")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="state validation tolerance (positive, finite)")


def _add_threshold_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c-chsh", type=float, default=Thresholds.c_chsh, help="CHSH centre threshold")
    p.add_argument("--c-f3", type=float, default=Thresholds.c_f3, help="F3 centre threshold")


@functools.cache  # built once per process; --seed still reads HQC_SEED at each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqc",
        description="Hidden quantum correlations of two-qubit states: analyse, certify, scan, sweep, filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full correlation/inaccessibility report for one state")
    _add_state_input_options(p)
    _add_threshold_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("certify", help="one-sided inaccessibility certificate for one state")
    _add_state_input_options(p)
    _add_threshold_options(p)
    p.add_argument("--party", choices=["A", "B"], required=True, help="party whose filters are certified useless")
    p.add_argument("--objective", choices=["chsh", "f3"], required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="grid scan of a state family to CSV")
    p.add_argument("family", choices=[f.value for f in Family])
    p.add_argument("--theta", default=f"0:{math.pi / 4}:101", help="theta grid start:stop:count")
    p.add_argument("--p", default="0:1:101", help="p grid start:stop:count")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_threshold_options(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("sweep", help="random-state conjecture sweep")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: HQC_SEED env or 0)")
    p.add_argument("--out-prefix", required=True, help="prefix for output files")
    p.add_argument("--bins", type=int, default=SweepConfig.bins, help="centre-magnitude histogram bins")
    p.add_argument("--workers", type=int, default=SweepConfig.workers, help="parallel workers")
    p.add_argument(
        "--rank-mix", default=None, help="rank weights, each rank at most once, e.g. 1:0.25,2:0.25,3:0.25,4:0.25"
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("filter", help="apply local filters or optimise a one-sided filter")
    _add_state_input_options(p)
    _add_threshold_options(p)
    p.add_argument("--filter-a", default=None, help="filter JSON for party A")
    p.add_argument("--filter-b", default=None, help="filter JSON for party B")
    p.add_argument(
        "--optimize",
        nargs=2,
        metavar=("PARTY", "OBJECTIVE"),
        default=None,
        help="optimise a one-sided filter, e.g. --optimize A chsh",
    )
    max_iters = inspect.signature(optimize_one_sided).parameters["max_iters"].default
    p.add_argument("--starts", type=int, default=1, help="accepted for compatibility (>= 1); unused")
    p.add_argument("--max-iters", type=int, default=max_iters, help="CHSH polish iterations (validated for F3)")
    p.add_argument(
        "--seed", type=int, default=None, help="accepted for compatibility (>= 0; default: HQC_SEED env or 0); unused"
    )
    p.add_argument("--out", default=None, help="write the filtered state JSON here")
    p.set_defaults(func=_cmd_filter)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except (HqcError, OSError) as exc:
            _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
            code = 2
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: send what is still buffered to devnull, so exiting cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("hqc: stdout was closed before the output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
