"""Self-tests of the benchmark: its checks reject corrupted outputs, its tracer
reports what it cannot wrap, and BENCHMARK.json matches what it prints.

Run from the repository root: ``python3 -m pytest hqcbench -q``.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

import run

run.import_hqc()

import hqc  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _call(argv, states=1, out=None, label=""):
    return workloads.execute(workloads.Call(tuple(argv), states, out, label))


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("sweep") / "s_")
    argv = ["sweep", "--n", "3000", "--seed", "5", "--workers", "2", "--out-prefix", prefix]
    res = _call(argv, 3000, prefix + "envelope.csv")
    assert res.code == 0
    return res


@pytest.fixture(scope="module")
def scan_result(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("scan") / "mm.csv")
    res = _call(["scan", "mm", "--theta", "0:0.785398:5", "--p", "0:1:5", "--out", out], 25, out, "mm")
    assert res.code == 0
    return res


@pytest.fixture(scope="module")
def optimize_result(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("opt") / "state.json")
    hqc.serde.dump_state_json(hqc.rho_m(0.5, 0.8), path)
    res = _call(["filter", path, "--optimize", "A", "chsh", "--starts", "2", "--seed", "3"])
    assert res.code == 0
    return res


def test_sweep_check_accepts_output_and_rejects_corruptions(sweep_result):
    payload, text = sweep_result.payload(), sweep_result.csv_text
    assert workloads.check_sweep(payload, text) == []
    assert workloads.check_sweep({**payload, "violations": 1}, text)
    header, first, *rest = text.splitlines()
    c_mid, max_b, max_f3, count = first.split(",")
    recount = "\n".join([header, f"{c_mid},{max_b},{max_f3},{int(count) + 1}", *rest])
    assert any("counts sum" in p for p in workloads.check_sweep(payload, recount))
    lines = text.splitlines()
    c_mid, max_b, max_f3, count = lines[-1].split(",")  # highest centre bin: bound 1 + tolerance
    lines[-1] = f"{c_mid},1.001,{max_f3},{count}"
    assert any("centre bound" in p for p in workloads.check_sweep(payload, "\n".join(lines)))
    lines[-1] = f"{c_mid},{max_b},1.7321,{count}"
    assert any("sqrt(3)" in p for p in workloads.check_sweep(payload, "\n".join(lines)))


def _edit_row(text: str, index: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[index + 1].split(",")
    cells[header.index(column)] = value
    lines[index + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_scan_check_accepts_output_and_rejects_corruptions(scan_result):
    payload, text = scan_result.payload(), scan_result.csv_text
    assert workloads.check_scan("mm", payload, text, 25, seed=1) == []
    assert any("CSV rows" in p for p in workloads.check_scan("mm", payload, text, 26, seed=1))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    cb_col = text.splitlines()[0].split(",").index("cB")
    k = next(i for i, r in enumerate(rows) if abs(float(r[cb_col]) - 0.5) > 1e-3)
    flags = set(filter(None, rows[k][-1].split(";"))) ^ {"A_INACCESSIBLE_CHSH"}
    flipped = _edit_row(text, k, "flags", ";".join(sorted(flags)))
    assert any("A_INACCESSIBLE_CHSH" in p for p in workloads.check_scan("mm", payload, flipped, 25, seed=1))
    shifted = text
    for i, r in enumerate(rows):  # every row, so whichever rows the oracle samples disagree
        shifted = _edit_row(shifted, i, "B", repr(float(r[2]) + 1e-5))
    assert any("brute-force" in p for p in workloads.check_scan("mm", payload, shifted, 25, seed=1))


def test_optimize_check_accepts_output_and_rejects_corruptions(optimize_result):
    payload = optimize_result.payload()
    assert workloads.check_optimize(payload) == []
    opt = payload["optimizer"]

    def with_value(v):
        return {**payload, "optimizer": {**opt, "value": v}}

    assert any("below the unfiltered" in p for p in workloads.check_optimize(with_value(payload["before"]["b"] - 1e-6)))
    assert any("quantum maximum" in p for p in workloads.check_optimize(with_value(1.5)))
    assert any("filtered state gives" in p for p in workloads.check_optimize(with_value(opt["value"] + 1e-7)))
    high = payload["before"]["hb_star"] + 1e-3
    assert any("max(1, hidden)" in p for p in workloads.check_optimize(with_value(high)))


def test_failed_calls_are_problems(tmp_path):
    missing = str(tmp_path / "absent.json")
    res = _call(["filter", missing, "--optimize", "A", "chsh"])
    assert res.code == 2
    assert workloads.check("optimize", res, seed=1)
    res = _call(["sweep", "--no-such-flag"])
    assert res.code == 2 and workloads.check("sweep", res, seed=1)
    garbled = workloads.Result(res.call, 0.0, 0, "{}")
    assert any("malformed output" in p for p in workloads.check("optimize", garbled, seed=1))


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.delattr(hqc.montecarlo, "_bin_side")
    tracer = Tracer()
    layers.install(tracer)
    tracer.unpatch()
    assert tracer.absent == ["hqc.montecarlo._bin_side"]
    absent = layers.absent_spans(tracer)
    assert absent == {"montecarlo.bin"}
    run_ = layers.Run(tracer.table(), (1.0,), 1.0, 0)
    metrics, missing = layers.measure(run_, absent)
    assert missing == ["montecarlo.bin.s"]
    assert "montecarlo.bin.s" not in metrics and "montecarlo.chunks" in metrics


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: [traced_leaf() for _ in range(3)])
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    table = tracer.table()
    outers, leaves = table.rows("outer"), table.rows("leaf")
    assert len(outers) == 4 and len(leaves) == 12
    assert all(table.parent[i] in outers and table.thread[i] == table.thread[table.parent[i]] for i in leaves)
    for i in outers:
        children = leaves[table.parent[leaves] == i]
        assert math.isclose(table.self_time[i], table.duration[i] - table.duration[children].sum(), abs_tol=1e-12)


def test_traced_optimizer_reports_counted_and_reported_starts(tmp_path):
    path = str(tmp_path / "maximal.json")
    hqc.serde.dump_state_json(hqc.rho_qd(1.0), path)
    call = workloads.Call(("filter", path, "--optimize", "A", "chsh"), 1)
    tracer = Tracer()
    layers.install(tracer)
    try:
        res = workloads.execute(call)
    finally:
        tracer.unpatch()
    run_ = layers.Run(tracer.table(), (res.seconds,), res.seconds, workloads.starts_reported([res]))
    metrics, missing = layers.measure(run_, layers.absent_spans(tracer))
    assert missing == []
    # start 0 reaches sqrt(2) on the maximal state, so the optimiser stops after one start
    assert metrics["filtering.minimize.calls"]["value"] == 1
    assert metrics["filtering.starts_reported"]["value"] == res.payload()["optimizer"]["starts_used"]


def test_benchmark_json_matches_the_metrics_printed():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS
    ]
    moved = {e2e for m in layers.METRICS for e2e, _ in m.moves + m.minor}
    assert moved <= set(run.END_TO_END_UNITS)
