"""The benchmark's workloads: seeded inputs, in-process CLI calls, output checks.

Every workload is a closed loop of single-process batch jobs: the next CLI
call starts when the previous one has returned. A *job* is the unit of
work a user waits for, one or more CLI calls; a *pass* is one run over a
workload's fixed job list. Inputs are a pure function of the seed and are
drawn through the library's own samplers, so the program under test
receives only generated inputs.

* ``sweep``: one job is ``hqc sweep --n 131072 --workers 2`` with the
  default rank mix, the conjecture-testing hot loop and the only threaded
  path: two full 65,536-state chunks, one per worker.
* ``scan``: one job is ``hqc scan mm`` on a 21x21 grid, every fifth line
  of the CLI's default 101x101 grid, called one theta row at a time, plus
  a 21-point ``hqc scan qd`` line: the scalar per-point ``classify`` path.
  QD's defective normal-form spectrum takes the cluster-merge branch and
  the MM grid's theta = 0 row the pure-marginal branches.
* ``optimize``: one job is ``hqc filter <state> --optimize <party>
  <objective> --starts 2``; a pass covers Ginibre states of ranks 2-4,
  ``rho_m`` and ``rho_qd`` points and one maximal state, the one-sided
  optimiser's Nelder-Mead loop and its early exit.

Calls are sized to take tens of milliseconds up to 0.4 s, so that a run
repeats each of them many times and a reference loop timed before each
call (see ``run.py``) follows the host's speed from call to call.

The checks read only the outputs a user gets (exit code, stdout JSON, CSV)
and compare with tolerances, never on last-bit values.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

WORKLOADS = ("sweep", "scan", "optimize")

SWEEP_N = 131_072  # two chunks of the sweep's default 65,536 states
SWEEP_WORKERS = 2
SCAN_GRID = 21  # every fifth line of the CLI's default 101 x 101 MM grid
OPTIMIZE_STARTS = 2
BRUTE_FORCE_ROWS = 6  # rows per scan output re-checked with the brute-force oracle
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass."""

    argv: tuple[str, ...]
    states: int  # two-qubit states the call processes
    out: str | None = None  # CSV file the call writes
    label: str = ""


@dataclass
class Result:
    """What one call returned; ``seconds`` is the call's wall time."""

    call: Call
    seconds: float
    code: int | None
    stdout: str
    csv_text: str | None = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    def payload(self) -> dict:
        return json.loads(self.stdout)


def prepare(workload: str, seed: int, workdir: str) -> list[list[Call]]:
    """The jobs of one pass, with any input files written into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "sweep":
        argv = ("sweep", "--n", str(SWEEP_N), "--seed", str(seed), "--workers", str(SWEEP_WORKERS))
        prefix = os.path.join(workdir, "sweep_")
        return [[Call(argv + ("--out-prefix", prefix), SWEEP_N, prefix + "envelope.csv", "sweep")]]
    if workload == "scan":
        from hqc import SeededRng

        gen = SeededRng(seed, 0).generator()
        lo, hi = float(gen.uniform(0.0, 0.02)), float(gen.uniform(0.98, 1.0))
        mm_out = os.path.join(workdir, "scan_mm.csv")
        qd_out = os.path.join(workdir, "scan_qd.csv")
        grid = f"0:1:{SCAN_GRID}"
        rows = [
            Call(("scan", "mm", "--theta", f"{theta!r}:{theta!r}:1", "--p", grid, "--out", mm_out), SCAN_GRID, mm_out, "mm")
            for theta in np.linspace(0.0, math.pi / 4, SCAN_GRID).tolist()
        ]
        qd = Call(("scan", "qd", "--p", f"{lo!r}:{hi!r}:{SCAN_GRID}", "--out", qd_out), SCAN_GRID, qd_out, "qd")
        return [rows + [qd]]
    if workload == "optimize":
        return [[call] for call in _optimize_calls(seed, workdir)]
    raise ValueError(f"unknown workload {workload!r}")


def _optimize_calls(seed: int, workdir: str) -> list[Call]:
    from hqc import SeededRng, rho_m, rho_qd, sample_state
    from hqc.serde import dump_state_json

    # The seed draws the Ginibre states. The family points and the optimiser's
    # start points are fixed: call times vary by machine noise alone on them,
    # so the set's mean call time and mean value move with the seed no more
    # than the three random states make them. One Ginibre call's time varies
    # by a factor of up to five between seeds; the thirteen fixed calls keep
    # that to a few per cent of a pass.
    cases = [
        # Ginibre states: suprema on the scale floor or just below it.
        ("ginibre-r2", sample_state(SeededRng(seed, 2), rank=2), "A", "chsh"),
        ("ginibre-r3", sample_state(SeededRng(seed, 3), rank=3), "B", "chsh"),
        ("ginibre-r4", sample_state(SeededRng(seed, 4), rank=4), "A", "f3"),
        # One-sided noise: Alice's optimum is interior and reaches the hidden value.
        ("rho_m-a", rho_m(0.5, 0.8), "A", "chsh"),
        ("rho_m-b", rho_m(0.3, 0.7), "A", "chsh"),
        ("rho_m-c", rho_m(0.35, 0.75), "A", "f3"),
        ("rho_m-d", rho_m(0.6, 0.9), "B", "chsh"),
        ("rho_m-e", rho_m(0.4, 0.85), "B", "f3"),
        ("rho_m-f", rho_m(0.55, 0.65), "A", "chsh"),
        # Quasi-distillable line: defective normal-form spectrum.
        ("rho_qd-a", rho_qd(0.6), "A", "chsh"),
        ("rho_qd-b", rho_qd(0.8), "B", "f3"),
        ("rho_qd-c", rho_qd(0.4), "A", "f3"),
        ("rho_qd-d", rho_qd(0.9), "B", "chsh"),
        ("rho_qd-e", rho_qd(0.5), "B", "chsh"),
        ("rho_qd-f", rho_qd(0.7), "A", "f3"),
        # Maximal state: start 0 reaches sqrt(2) and the optimiser stops early.
        ("maximal", rho_qd(1.0), "A", "chsh"),
    ]
    calls = []
    for k, (label, rho, party, objective) in enumerate(cases):
        path = os.path.join(workdir, f"state_{k}.json")
        dump_state_json(rho, path)
        argv = ("filter", path, "--optimize", party, objective, "--starts", str(OPTIMIZE_STARTS), "--seed", "0")
        calls.append(Call(argv, 1, None, label))
    return calls


def execute(call: Call) -> Result:
    """Run one call in-process through ``hqc.cli.main``; failures are data."""
    import hqc.cli

    out = io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = hqc.cli.main(list(call.argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a call that raises is counted as failed, the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    result = Result(call, seconds, code, out.getvalue(), error=error)
    if call.out and code == 0:
        with open(call.out, encoding="utf-8") as fh:
            result.csv_text = fh.read()
    return result


# ---------------------------------------------------------------- checks


def check(workload: str, result: Result, seed: int) -> list[str]:
    """Problems with one call's output; empty when the output is correct."""
    if result.error is not None:
        return [f"raised {result.error}"]
    if result.code != 0:
        return [f"exit code {result.code}: {result.stdout.strip()[:200]}"]
    try:
        payload = result.payload()
        if workload == "sweep":
            return check_sweep(payload, result.csv_text or "")
        if workload == "scan":
            return check_scan(result.call.label, payload, result.csv_text or "", result.call.states, seed)
        return check_optimize(payload)
    except (KeyError, TypeError, ValueError) as exc:  # includes stdout that is not JSON
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_sweep(payload: dict, csv_text: str) -> list[str]:
    problems = []
    if payload.get("violations") != 0:
        problems.append(f"{payload.get('violations')} conjecture violations")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    bins = int(payload["bins"])
    expected = int(payload["n"]) - int(payload["degenerate"]["c_b"])
    total = sum(int(row["count"]) for row in rows)
    if total != expected:
        problems.append(f"envelope counts sum to {total}, expected n - degenerate(c_b) = {expected}")
    for row in rows:
        c_lo = min(max(float(row["c_mid"]) - 0.5 / bins, 0.0), 1.0)
        max_b, max_f3 = float(row["max_B"]), float(row["max_F3"])
        bound = max(math.sqrt(2.0 * (1.0 - c_lo)), 1.0)
        if not max_b <= bound + BOUND_TOL:
            problems.append(f"bin c_mid={row['c_mid']}: max_B {max_b} above the centre bound {bound}")
        if not max_b <= SQRT2 + BOUND_TOL:
            problems.append(f"bin c_mid={row['c_mid']}: max_B {max_b} above sqrt(2)")
        if not max_f3 <= SQRT3 + BOUND_TOL:
            problems.append(f"bin c_mid={row['c_mid']}: max_F3 {max_f3} above sqrt(3)")
    return problems


def _flag_problems(row: dict, flags: set[str], c_chsh: float, c_f3: float) -> list[str]:
    """Flag logic that must hold row by row, away from the comparison edges."""
    problems = []
    values = {k: float(row[k]) for k in ("B", "F3", "HBstar", "HF3star", "cA", "cB")}
    for name, value, hidden, cutoff, maxval in (
        ("CHSH", values["B"], values["HBstar"], c_chsh, SQRT2),
        ("F3", values["F3"], values["HF3star"], c_f3, SQRT3),
    ):
        for party, centre in (("A", values["cB"]), ("B", values["cA"])):
            if abs(centre - cutoff) > BOUND_TOL and (f"{party}_INACCESSIBLE_{name}" in flags) != (centre > cutoff):
                problems.append(f"{party}_INACCESSIBLE_{name} disagrees with centre {centre} vs {cutoff}")
        if abs(value - 1.0) > BOUND_TOL and (f"NO_{name}_VIOLATION" in flags) != (value < 1.0):
            problems.append(f"NO_{name}_VIOLATION disagrees with value {value}")
        if f"HIDDEN_{name}" in flags and not (value <= 1.0 + BOUND_TOL and hidden > 1.0 - BOUND_TOL):
            problems.append(f"HIDDEN_{name} with value {value} and hidden {hidden}")
        if f"MAXIMAL_HIDDEN_{name}" in flags and not hidden >= maxval - 1e-6:
            problems.append(f"MAXIMAL_HIDDEN_{name} with hidden {hidden}")
        both = f"A_INACCESSIBLE_{name}" in flags and f"B_INACCESSIBLE_{name}" in flags
        if both != (f"AB_INACCESSIBLE_{name}" in flags):
            problems.append(f"AB_INACCESSIBLE_{name} disagrees with the one-sided flags")
    return problems


def check_scan(family: str, payload: dict, csv_text: str, rows_expected: int, seed: int) -> list[str]:
    from hqc import SeededRng, brute_force_chsh, rho_mm, rho_qd, to_r_picture

    rows = list(csv.DictReader(io.StringIO(csv_text)))
    problems = []
    if len(rows) != rows_expected or payload.get("rows") != rows_expected:
        problems.append(f"{len(rows)} CSV rows and {payload.get('rows')} reported, expected {rows_expected}")
    th = payload["thresholds"]
    for i, row in enumerate(rows):
        flags = set(filter(None, row["flags"].split(";")))
        problems += [f"row {i}: {p}" for p in _flag_problems(row, flags, th["c_chsh"], th["c_f3"])]
    if rows:
        gen = SeededRng(seed, 1).generator()
        for i in gen.choice(len(rows), size=min(BRUTE_FORCE_ROWS, len(rows)), replace=False):
            row = rows[int(i)]
            theta, p = float(row["theta"]), float(row["p"])
            rho = rho_qd(p) if family == "qd" else rho_mm(theta, p)
            oracle = brute_force_chsh(to_r_picture(rho))
            if not abs(oracle - float(row["B"])) <= 1e-6:
                problems.append(f"row {int(i)}: B {row['B']} but the brute-force oracle gives {oracle!r}")
    return problems


def check_optimize(payload: dict) -> list[str]:
    from hqc import chsh_max, f3_max, to_r_picture
    from hqc.serde import state_from_dict

    opt = payload["optimizer"]
    before = payload["before"]
    value = float(opt["value"])
    chsh = opt["objective"] == "CHSH"
    unfiltered = float(before["b"] if chsh else before["f3"])
    problems = []
    if not value >= unfiltered - BOUND_TOL:
        problems.append(f"value {value} below the unfiltered value {unfiltered}")
    if not value <= (SQRT2 if chsh else SQRT3) + BOUND_TOL:
        problems.append(f"value {value} above the quantum maximum")
    if chsh and before["hb_star"] is not None and not value <= max(1.0, before["hb_star"]) + 1e-6:
        problems.append(f"value {value} above max(1, hidden) = {max(1.0, before['hb_star'])}")
    r = to_r_picture(state_from_dict(payload["filtered_state"]))
    recomputed = chsh_max(r)[0] if chsh else f3_max(r)
    if not abs(recomputed - value) <= BOUND_TOL:
        problems.append(f"value {value} but the emitted filtered state gives {recomputed!r}")
    return problems


# ---------------------------------------------------------------- values


def value_mean(workload: str, results: list[Result]) -> float:
    """Mean of the headline correlation value of one pass's outputs.

    sweep: max_B over the occupied envelope bins; scan: the finite hidden
    CHSH values; optimize: the optimiser values. Outputs are deterministic
    in the seed, so a change that weakens a result shows here.
    """
    values: list[float] = []
    for res in results:
        if res.problems or res.code != 0:
            continue
        if workload == "sweep":
            values += [float(row["max_B"]) for row in csv.DictReader(io.StringIO(res.csv_text))]
        elif workload == "scan":
            hidden = np.array([float(row["HBstar"]) for row in csv.DictReader(io.StringIO(res.csv_text))])
            values += hidden[np.isfinite(hidden)].tolist()
        else:
            values.append(float(res.payload()["optimizer"]["value"]))
    return float(np.mean(values)) if values else 0.0  # no correct output: the run reports its failures


def starts_reported(results: list[Result]) -> int:
    """Sum of the optimiser's own ``starts_used`` over successful filter calls."""
    total = 0
    for res in results:
        if res.code == 0 and res.call.argv[0] == "filter":
            total += int(res.payload()["optimizer"]["starts_used"])
    return total
