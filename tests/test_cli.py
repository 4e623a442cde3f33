import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqc
from hqc import (
    ComplexSpectrum,
    DensityMatrix,
    Objective,
    Party,
    SeededRng,
    SweepConfig,
    Thresholds,
    apply_one_sided,
    classify,
    compute_ellipsoid,
    identity_filter,
    optimize_one_sided,
    sample_state,
    serde,
    to_r_picture,
    validate_state,
)
from hqc import cli as cli_mod
from hqc import filtering as filtering_mod
from hqc.cli import main
from hqc.families import paper_filter_rho_m, rho_m, rho_mm, rho_qd
from hqc.states import DEFAULT_TOL

from conftest import singlet_matrix, werner_matrix
from support import reference_optimum, rmatrix_to_csv


GOLDEN = Path(__file__).resolve().parent / "golden"


def _complex_spectrum_state() -> DensityMatrix:
    """A state with eigenvalues (0.6, 0.45, 0, -0.05): below the normal-form spectrum's -1e-8 guard."""
    gen = np.random.default_rng(0)
    for _ in range(2):
        h = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        _, v = np.linalg.eigh(h + h.conj().T)
    return DensityMatrix((v * np.array([0.6, 0.45, 0.0, -0.05])) @ v.conj().T)


def _classify_error(rho: DensityMatrix) -> str:
    with pytest.raises(ComplexSpectrum) as exc:
        classify(to_r_picture(rho))
    return str(exc.value)


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    serde.dump_state_json(validate_state(singlet_matrix()), str(path))
    return str(path)


class TestAnalyze:
    def test_singlet_report(self, capsys, singlet_file):
        code, doc = run_cli(capsys, "analyze", singlet_file)
        assert code == 0
        assert doc["report"]["b"] == pytest.approx(math.sqrt(2), abs=1e-10)
        assert doc["report"]["flags"] == []
        assert doc["ellipsoid_b"]["semiaxes"] == pytest.approx([1, 1, 1], abs=1e-10)

    def test_quasi_distillable_case5(self, capsys, tmp_path):
        path = tmp_path / "qd.json"
        serde.dump_state_json(rho_qd(0.4), str(path))
        code, doc = run_cli(capsys, "analyze", str(path))
        assert code == 0
        flags = set(doc["report"]["flags"])
        assert {"MAXIMAL_HIDDEN_CHSH", "AB_INACCESSIBLE_CHSH"} <= flags

    @pytest.mark.parametrize(
        "make_state",
        [
            lambda: rho_qd(0.4),
            lambda: sample_state(SeededRng(3, 1), rank=2),
            lambda: rho_m(0.0, 0.5),  # Bob's ellipsoid is a point
        ],
        ids=["qd_04", "ginibre_rank2", "m_0_05"],
    )
    def test_rcsv_format(self, capsys, tmp_path, make_state):
        # a state's JSON and the R-CSV of its picture are two files of one R: every report on it is the same
        rho = make_state()
        serde.dump_state_json(rho, str(tmp_path / "state.json"))
        (tmp_path / "state.rcsv").write_text(rmatrix_to_csv(to_r_picture(rho)))

        def outputs(*argv: str) -> dict[str, str]:
            outs = {}
            for fmt in ("json", "rcsv"):
                assert main([argv[0], str(tmp_path / f"state.{fmt}"), "--format", fmt, *argv[1:]]) == 0
                outs[fmt] = capsys.readouterr().out
            return outs

        outs = outputs("analyze")
        assert outs["rcsv"] == outs["json"]
        for party in ("A", "B"):
            for objective in ("chsh", "f3"):
                outs = outputs("certify", "--party", party, "--objective", objective)
                assert outs["rcsv"] == outs["json"], (party, objective)
        outs = outputs("filter")
        assert json.loads(outs["rcsv"])["before"] == json.loads(outs["json"])["before"]

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        code, doc = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert doc["error"]["type"] == "ParseError"

    def test_unphysical_state_exits_2(self, capsys, tmp_path):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        doc = {"dim": [2, 2], "matrix": [[{"re": z.real, "im": z.imag} for z in row] for row in bad]}
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out["error"]["type"] == "NotPositive"

    def test_missing_file_exits_2(self, capsys):
        code, doc = run_cli(capsys, "analyze", "/nonexistent/state.json")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2(self, capsys, tmp_path, tol):
        # a NaN or infinite tolerance would accept this unphysical matrix (b = 2 > sqrt(2))
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        path = tmp_path / "bad_state.json"
        doc = {"dim": [2, 2], "matrix": [[{"re": z.real, "im": z.imag} for z in row] for row in bad]}
        path.write_text(json.dumps(doc))
        code, doc = run_cli(capsys, "analyze", str(path), "--tol", tol)
        assert code == 2
        assert doc["error"]["type"] == "DomainError"

    def test_non_finite_state_json_exits_2(self, capsys, tmp_path):
        doc = serde.state_to_dict(rho_m(0.5, 0.8))
        doc["matrix"][0][1]["re"] = doc["matrix"][1][0]["re"] = math.nan
        path = tmp_path / "nan_state.json"
        path.write_text(json.dumps(doc))  # json writes and reads NaN as a bare literal
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("row, col", [(1, 1), (0, 0)])
    def test_non_finite_rcsv_exits_2(self, capsys, tmp_path, row, col):
        # a NaN at R[0][0] passes the corner check's comparison, so it is rejected before it
        r = to_r_picture(rho_m(0.5, 0.8)).r.copy()
        r[row, col] = math.nan
        path = tmp_path / "nan_state.rcsv"
        path.write_text("\n".join(",".join(repr(float(x)) for x in line) for line in r) + "\n")
        code, out = run_cli(capsys, "analyze", str(path), "--format", "rcsv")
        assert code == 2
        assert out["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "fmt, content",
        # json's decoder gives up on deep nesting with a RecursionError, not a JSONDecodeError
        [("json", b"\xff{}"), ("rcsv", b"\xff1,0,0,0"), ("json", b"[" * 200_000)],
        ids=["non-utf8-json", "non-utf8-rcsv", "deeply-nested-json"],
    )
    def test_undecodable_input_exits_2(self, capsys, tmp_path, fmt, content):
        path = tmp_path / f"state.{fmt}"
        path.write_bytes(content)
        code, out = run_cli(capsys, "analyze", str(path), "--format", fmt)
        assert code == 2
        assert out["error"]["type"] == "ParseError"
        assert str(path) in out["error"]["message"]

    def test_report_marks_the_certificates_it_refutes(self, capsys, tmp_path):
        # R(0.661) filtered by its one-sided F3 optimum: F3 exceeds 1 while the report still flags
        # Alice's F3 inaccessible, so the report refutes its own certificate
        filtered = tmp_path / "filtered.json"
        argv = ["filter", str(GOLDEN / "tight_chsh_0_661.rcsv"), "--format", "rcsv", "--optimize", "A", "f3"]
        assert run_cli(capsys, *argv, "--out", str(filtered))[0] == 0
        code, doc = run_cli(capsys, "analyze", str(filtered))
        assert code == 0
        assert doc["report"]["f3"] > 1.0005 and doc["report"]["b"] <= 1.0
        assert "A_INACCESSIBLE_F3" in doc["report"]["flags"]
        assert doc["refuted"] == ["A_INACCESSIBLE_F3"]
        assert list(doc)[-1] == "refuted"


class TestCertify:
    def test_quasi_distillable(self, capsys, tmp_path):
        path = tmp_path / "qd.json"
        serde.dump_state_json(rho_qd(0.5), str(path))
        code, doc = run_cli(capsys, "certify", str(path), "--party", "A", "--objective", "chsh")
        assert code == 0
        assert doc["certified_inaccessible"] is True
        assert doc["witness_centre"] == "c_b"
        assert doc["witness_centre_magnitude"] == pytest.approx(2 / 3, abs=1e-9)
        assert doc["conjecture_conditional"] is True

    def test_singlet_not_certified(self, capsys, singlet_file):
        code, doc = run_cli(capsys, "certify", singlet_file, "--party", "B", "--objective", "f3")
        assert code == 0
        assert doc["certified_inaccessible"] is False

    @pytest.mark.parametrize("c_chsh", [None, "0.3"])
    def test_verdict_is_certify_inaccessible(self, capsys, tmp_path, c_chsh):
        # rho_qd(0.5) is certified for both parties; |00><00| has pure
        # marginals, so its witness ellipsoids are degenerate points
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        states = {"qd": rho_qd(0.5), "m": rho_m(math.pi / 12, 0.75), "ket00": validate_state(ket00)}
        th = Thresholds() if c_chsh is None else Thresholds(c_chsh=float(c_chsh))
        extra = [] if c_chsh is None else ["--c-chsh", c_chsh]
        for name, rho in states.items():
            path = tmp_path / f"{name}.json"
            serde.dump_state_json(rho, str(path))
            r = to_r_picture(rho)
            _, analysis = run_cli(capsys, "analyze", str(path), *extra)
            for party in (Party.A, Party.B):
                for objective in (Objective.CHSH, Objective.F3):
                    code, doc = run_cli(
                        capsys, "certify", str(path), "--party", party.value,
                        "--objective", objective.value.lower(), *extra,
                    )
                    assert code == 0
                    witness = compute_ellipsoid(r, party.other())
                    magnitude = float(np.linalg.norm(witness.centre, axis=-1))
                    assert doc["certified_inaccessible"] is (magnitude > th.cutoff(objective)), name
                    flag = f"{party.value}_INACCESSIBLE_{objective.value}"
                    assert doc["certified_inaccessible"] is (flag in analysis["report"]["flags"]), name
                    assert doc["witness_centre_magnitude"] == magnitude
                    assert doc["witness_degenerate"] is witness.degenerate
                    assert doc["threshold"] == (th.c_chsh if objective is Objective.CHSH else th.c_f3)
        code, doc = run_cli(capsys, "certify", str(tmp_path / "ket00.json"), "--party", "A", "--objective", "chsh")
        assert doc["witness_degenerate"] is True and doc["certified_inaccessible"] is True

    def test_one_centre_pass_per_party(self, capsys, tmp_path, monkeypatch):
        # the witness's degeneracy comes from classify's own centre pass, not a second one
        from hqc import ellipsoid

        calls = []
        steering = ellipsoid._steering
        monkeypatch.setattr(ellipsoid, "_steering", lambda r: calls.append(1) or steering(r))
        path = tmp_path / "point.json"
        serde.dump_state_json(rho_m(0.0, 0.5), str(path))
        code, doc = run_cli(capsys, "certify", str(path), "--party", "A", "--objective", "chsh")
        assert code == 0 and doc["witness_degenerate"] is True
        assert len(calls) == 2


@pytest.mark.usefixtures("recorded_platform")
class TestReportGoldens:
    """stdout of ``hqc analyze`` and of ``hqc certify`` for both parties and objectives, byte for
    byte, recorded while classify and the sweep still computed |c| on separate paths (the
    hidden values of ``analyze`` on rho_m(pi/12, 0.75) re-recorded with the spin-flip
    spectrum). On rho_m(0, 0.5) Bob's ellipsoid is a point, so c_b is the point-ellipsoid convention's exact
    0.5 and party A's certificate has a degenerate witness. The platform guard is that of
    ``TestOutputBitPins``."""

    STATES = {"m_pi12_075": (math.pi / 12, 0.75), "m_0_05": (0.0, 0.5)}

    @pytest.mark.parametrize("state", list(STATES))
    @pytest.mark.parametrize(
        "argv, suffix",
        [(["analyze"], "")]
        + [(["certify", "--party", p, "--objective", o], f"_{p}_{o}") for p in "AB" for o in ("chsh", "f3")],
        ids=["analyze", "certify_A_chsh", "certify_A_f3", "certify_B_chsh", "certify_B_f3"],
    )
    def test_stdout(self, capsys, tmp_path, state, argv, suffix):
        path = tmp_path / "state.json"
        serde.dump_state_json(rho_m(*self.STATES[state]), str(path))
        assert main([argv[0], str(path), *argv[1:]]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{argv[0]}_{state}{suffix}.json").read_text()


@pytest.mark.usefixtures("recorded_platform")
class TestKnownF3CounterexampleGoldens:
    """stdout of ``hqc filter --optimize X f3`` on the known counterexamples to the F3 literal 0.66,
    byte for byte, recorded while the exact F3 solve still bracketed its secular root: R(0.661)
    as an R-CSV with ``repr`` entries, and ``rho_qd(0.505)`` as a state JSON, and re-recorded when
    the ``refuted`` key was added. Each value exceeds 1 while its ``before`` report certifies the
    party's F3 inaccessible; ``refuted`` names those certificates, and the flag sets keep them.
    The platform guard is that of ``TestOutputBitPins``."""

    @pytest.mark.parametrize(
        "state_file, fmt, party, refuted",
        [
            ("tight_chsh_0_661.rcsv", "rcsv", "A", ["A_INACCESSIBLE_F3"]),
            ("rho_qd_0_505.json", "json", "A", ["AB_INACCESSIBLE_F3", "A_INACCESSIBLE_F3"]),
            ("rho_qd_0_505.json", "json", "B", ["AB_INACCESSIBLE_F3", "B_INACCESSIBLE_F3"]),
        ],
        ids=["tight_chsh_0_661_A", "rho_qd_0_505_A", "rho_qd_0_505_B"],
    )
    def test_stdout(self, capsys, monkeypatch, state_file, fmt, party, refuted):
        monkeypatch.delenv("HQC_SEED", raising=False)
        argv = ["filter", str(GOLDEN / state_file), "--format", fmt, "--optimize", party, "f3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"filter_{Path(state_file).stem}_{party}_f3.json").read_text()
        doc = json.loads(out)
        assert doc["optimizer"]["value"] > 1.0 + 1e-4
        assert doc["refuted"] == refuted
        assert set(refuted) <= set(doc["before"]["flags"])
        assert list(doc).index("refuted") == list(doc).index("after") + 1


class TestScan:
    def test_qd_scan_with_boundaries(self, capsys, tmp_path):
        out = tmp_path / "qd.csv"
        code, doc = run_cli(capsys, "scan", "qd", "--p", "0.01:0.99:99", "--out", str(out))
        assert code == 0
        assert doc["boundaries"]["chsh_inaccessible_below_p"] == pytest.approx(2 / 3, abs=1e-6)
        assert doc["boundaries"]["f3_inaccessible_below_p"] == pytest.approx(0.5075, abs=1e-4)
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("theta,p,B,F3")
        assert len(lines) == 100

    def test_stage_line_goes_to_stderr_only(self, capsys, tmp_path):
        # the classify and CSV wall seconds are not data: they are one stderr line, and the
        # stdout JSON and the CSV hold no timing
        out = tmp_path / "qd.csv"
        code = main(["scan", "qd", "--p", "0.01:0.99:21", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert list(json.loads(captured.out)) == ["family", "rows", "out", "thresholds", "boundaries"]
        assert "classify" not in captured.out and "classify" not in out.read_text()
        assert re.fullmatch(r"scan: 21 points; classify \d+\.\d{4}s; csv \d+\.\d{4}s\n", captured.err), captured.err

    def test_mm_scan(self, capsys, tmp_path):
        out = tmp_path / "mm.csv"
        code, doc = run_cli(capsys, "scan", "mm", "--theta", "0:0.785:5", "--p", "0:1:5", "--out", str(out))
        assert code == 0
        assert doc["rows"] == 25

    def test_bad_grid_exits_2(self, capsys, tmp_path):
        code, doc = run_cli(capsys, "scan", "qd", "--p", "0.1:0.9:0", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert doc["error"]["type"] == "DomainError"

    def test_out_of_range_p_exits_2(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, doc = run_cli(capsys, "scan", "mm", "--p", "0:1.5:4", "--out", str(out))
        assert code == 2
        assert doc["error"]["type"] == "DomainError"
        assert not out.exists()

    def test_boundary_near_threshold_one(self, capsys, tmp_path):
        # the centre magnitude exceeds 1 - 1e-7 only for p below about 2e-7
        code, doc = run_cli(
            capsys, "scan", "qd", "--p", "0.1:0.9:3", "--c-f3", "0.9999999", "--out", str(tmp_path / "x.csv")
        )
        assert code == 0
        assert 0.0 < doc["boundaries"]["f3_inaccessible_below_p"] < 1e-6

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "scan", "qd", "--p", "0.1:0.9:9", "--out", str(a))
        run_cli(capsys, "scan", "qd", "--p", "0.1:0.9:9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.usefixtures("recorded_platform")
class TestScanBitPins:
    """SHA-256 digests of scan CSVs, recorded when the hidden values moved to the spin-flip
    spectrum: a rewrite of classify's kernels keeps every output bit. The MM grid is the
    benchmark's 21 x 21 grid (every fifth line of the default 101 x 101 grid), written both
    one theta row a call, as the benchmark calls it, and in one call; the M grid is the same
    21 x 21 grid in one call; the QD line is the CI's. The platform guard is that of
    ``TestOutputBitPins``."""

    THETAS = np.linspace(0.0, math.pi / 4, 21).tolist()

    @staticmethod
    def _scan(capsys, out, *argv: str) -> bytes:
        code, _ = run_cli(capsys, "scan", *argv, "--out", str(out))
        assert code == 0
        return out.read_bytes()

    def _row(self, capsys, out, theta: float) -> bytes:
        return self._scan(capsys, out, "mm", "--theta", f"{theta!r}:{theta!r}:1", "--p", "0:1:21")

    def test_mm_one_row_calls(self, capsys, tmp_path):
        h = hashlib.sha256()
        for theta in self.THETAS:
            h.update(self._row(capsys, tmp_path / "mm.csv", theta))
        assert h.hexdigest() == "e137f75700017c1da9bbe23d2c8b6d0aa8040d122f643cb4755ebe1805ec06f4"

    def test_mm_one_call(self, capsys, tmp_path):
        whole = self._scan(capsys, tmp_path / "mm.csv", "mm", "--theta", f"0:{math.pi / 4!r}:21", "--p", "0:1:21")
        assert hashlib.sha256(whole).hexdigest() == "990289d66b7ca447a9988e88738d352ddda6b72e245d8fd432592347821d08a7"
        # the same points as the one-row calls, so the same data rows
        rows = [self._row(capsys, tmp_path / "row.csv", theta).splitlines()[1:] for theta in self.THETAS]
        assert whole.splitlines()[1:] == sum(rows, [])

    def test_m_one_call(self, capsys, tmp_path):
        whole = self._scan(capsys, tmp_path / "m.csv", "m", "--theta", f"0:{math.pi / 4!r}:21", "--p", "0:1:21")
        assert hashlib.sha256(whole).hexdigest() == "8dccc02a739b83cc1d71069c3836bd756fd0a19b1c1c198b433077831540b633"

    def test_qd_line(self, capsys, tmp_path):
        csv = self._scan(capsys, tmp_path / "qd.csv", "qd", "--p", "0.01:0.99:99")
        assert hashlib.sha256(csv).hexdigest() == "20cc1f0f641d44b554f23d586ad5c7857de95b5f7fa97d2891d4296a9717072a"


class TestSweep:
    def test_small_sweep(self, capsys, tmp_path):
        prefix = str(tmp_path / "run_")
        code, doc = run_cli(capsys, "sweep", "--n", "3000", "--seed", "42", "--out-prefix", prefix)
        assert code == 0
        assert doc["violations"] == 0
        assert doc["seed_source"] == "flag"
        csv_path = prefix + "envelope.csv"
        assert os.path.exists(csv_path)
        with open(csv_path) as fh:
            assert fh.readline().strip() == "c_mid,max_B,max_F3,count"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = str(tmp_path / "a_"), str(tmp_path / "b_")
        run_cli(capsys, "sweep", "--n", "3000", "--seed", "7", "--out-prefix", p1)
        run_cli(capsys, "sweep", "--n", "3000", "--seed", "7", "--out-prefix", p2)
        with open(p1 + "envelope.csv", "rb") as f1, open(p2 + "envelope.csv", "rb") as f2:
            assert f1.read() == f2.read()

    def test_metadata_and_stage_timer(self, capsys, tmp_path):
        # chunk and tile sizes are deterministic, so they are in the stdout JSON;
        # the per-stage wall seconds are not data and go to the stderr line only
        code = main(["sweep", "--n", "5000", "--seed", "1", "--out-prefix", str(tmp_path / "t_")])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 0
        assert list(doc["metadata"]) == ["ensemble", "rank_mix", "note", "chunks", "chunk_size", "tile_size"]
        assert (doc["metadata"]["chunk_size"], doc["metadata"]["tile_size"]) == (65536, 8192)
        assert "draw" not in captured.out and "violation_scan" not in captured.out
        assert re.fullmatch(
            r"sweep: 5000 samples in \d+\.\d\ds \(numpy kernel"
            r"; draw \d+\.\d\ds; stats \d+\.\d\ds; bin \d+\.\d\ds; violation_scan \d+\.\d\ds\)\n",
            captured.err,
        ), captured.err

    def test_zero_samples(self, capsys, tmp_path):
        prefix = str(tmp_path / "zero_")
        code, doc = run_cli(capsys, "sweep", "--n", "0", "--out-prefix", prefix)
        assert code == 0
        with open(prefix + "envelope.csv") as fh:
            assert fh.read() == "c_mid,max_B,max_F3,count\n"

    def test_env_seed_flagged(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HQC_SEED", "99")
        prefix = str(tmp_path / "env_")
        code, doc = run_cli(capsys, "sweep", "--n", "1000", "--out-prefix", prefix)
        assert code == 0
        assert doc["seed"] == 99
        assert doc["seed_source"] == "env:HQC_SEED"

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HQC_SEED", "99")
        prefix = str(tmp_path / "flag_")
        _, doc = run_cli(capsys, "sweep", "--n", "1000", "--seed", "3", "--out-prefix", prefix)
        assert doc["seed"] == 3
        assert doc["seed_source"] == "flag"

    def test_rank_mix_parsed(self, capsys, tmp_path):
        prefix = str(tmp_path / "mix_")
        code, doc = run_cli(
            capsys, "sweep", "--n", "1000", "--out-prefix", prefix, "--rank-mix", "1:0.25,2:0.25,3:0.25,4:0.25"
        )
        assert code == 0
        assert doc["metadata"]["rank_mix"]["1"] == 0.25

    # the last mix has finite weights whose sum overflows to inf
    @pytest.mark.parametrize("mix", ["1:nan,2:1", "2:inf", "1:1e308,2:1e308"])
    def test_non_finite_rank_mix_exits_2(self, capsys, tmp_path, mix):
        code, doc = run_cli(capsys, "sweep", "--n", "10", "--rank-mix", mix, "--out-prefix", str(tmp_path / "x_"))
        assert code == 2
        assert doc["error"]["type"] == "DomainError"

    def test_repeated_rank_in_mix_exits_2(self, capsys, tmp_path):
        # a repeated rank was once kept silently with its last weight
        prefix = tmp_path / "x_"
        code, doc = run_cli(capsys, "sweep", "--n", "10", "--rank-mix", "2:1,2:3", "--out-prefix", str(prefix))
        assert code == 2
        assert doc["error"]["type"] == "DomainError"
        assert "rank 2" in doc["error"]["message"]
        assert not Path(f"{prefix}envelope.csv").exists()


class TestNegativeSeed:
    # rejected before any work, including the calls that draw nothing from the seed
    @pytest.mark.parametrize(
        "argv, env",
        [
            (["sweep", "--n", "10", "--seed", "-1"], None),
            (["sweep", "--n", "10"], "-3"),
            (["sweep", "--n", "0", "--seed", "-1"], None),
            (["filter", "STATE", "--optimize", "A", "chsh", "--starts", "2", "--seed", "-1"], None),
            (["filter", "STATE", "--optimize", "A", "chsh", "--starts", "1", "--seed", "-1"], None),
        ],
        ids=["sweep", "sweep-env", "sweep-n0", "filter", "filter-one-start"],
    )
    def test_exits_2(self, capsys, tmp_path, monkeypatch, singlet_file, argv, env):
        if env is not None:
            monkeypatch.setenv("HQC_SEED", env)
        argv = [singlet_file if a == "STATE" else a for a in argv]
        if argv[0] == "sweep":
            argv += ["--out-prefix", str(tmp_path / "neg_")]
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert doc["error"]["type"] == "DomainError"


class TestSweepCounterexamplePath:
    def test_exit_3_and_dump_on_violation(self, capsys, tmp_path, monkeypatch):
        # wiring test: a (synthetic) recorded violation must produce exit
        # code 3 and a full-precision state dump
        import hqc.cli as cli_mod
        from hqc.montecarlo import SweepSummary, Violation, _empty_bins

        state = np.eye(4, dtype=complex) / 4

        def fake_run_sweep(config):
            violation = Violation(index=5, b=1.5, f3=1.6, c_a=0.7, c_b=0.7,
                                  reasons=("chsh_bound_cB",), state=state)
            return SweepSummary(config=config, bins=_empty_bins(config.bins),
                                violations=(violation,), metadata={}, runtime_seconds=0.0)

        monkeypatch.setattr(cli_mod, "run_sweep", fake_run_sweep)
        prefix = str(tmp_path / "v_")
        code = main(["sweep", "--n", "10", "--out-prefix", prefix])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["violations"] == 1
        dump_path = os.path.join(str(tmp_path), "states", "violation_5.json")
        assert os.path.exists(dump_path)
        assert doc["violation_dumps"] == [dump_path]
        with open(dump_path) as fh:
            dumped = json.load(fh)
        assert dumped["violation"] == {
            "index": 5, "b": 1.5, "f3": 1.6, "c_a": 0.7, "c_b": 0.7, "reasons": ["chsh_bound_cB"],
        }
        assert serde.load_state_json(dump_path).matrix.tobytes() == state.tobytes()


class TestParserDefaults:
    def test_defaults_are_the_librarys(self):
        parser = cli_mod.build_parser()
        search = inspect.signature(optimize_one_sided).parameters
        args = parser.parse_args(["filter", "state.json"])
        assert (args.starts, args.max_iters) == (search["starts"].default, search["max_iters"].default)
        assert (args.c_chsh, args.c_f3, args.tol) == (Thresholds().c_chsh, Thresholds().c_f3, DEFAULT_TOL)
        args = parser.parse_args(["sweep", "--n", "1", "--out-prefix", "s_"])
        config = SweepConfig(n=1)
        assert (args.bins, args.workers) == (config.bins, config.workers)


class TestFilter:
    def test_identity_default(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        serde.dump_state_json(validate_state(werner_matrix(0.5)), str(path))
        code, doc = run_cli(capsys, "filter", str(path))
        assert code == 0
        assert doc["success_probability"] == pytest.approx(1.0, abs=1e-12)
        assert doc["after"]["b"] == pytest.approx(doc["before"]["b"], abs=1e-12)

    def test_paper_filter_file(self, capsys, tmp_path):
        theta, p = math.pi / 6, 0.5
        state_path = tmp_path / "m.json"
        serde.dump_state_json(rho_m(theta, p), str(state_path))
        fa, _ = paper_filter_rho_m(theta)
        filter_path = tmp_path / "fa.json"
        filter_path.write_text(json.dumps(serde.filter_to_dict(fa)))
        code, doc = run_cli(capsys, "filter", str(state_path), "--filter-a", str(filter_path))
        assert code == 0
        assert doc["after"]["b"] == pytest.approx(doc["before"]["hb_star"], abs=1e-8)

    def test_non_finite_filter_exits_2(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        serde.dump_state_json(validate_state(werner_matrix(0.5)), str(path))
        doc = serde.filter_to_dict(identity_filter())
        doc["f"][0][1]["re"] = math.inf
        filter_path = tmp_path / "inf_filter.json"
        filter_path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "filter", str(path), "--filter-a", str(filter_path))
        assert code == 2
        assert out["error"]["type"] == "DomainError"

    def test_non_utf8_filter_exits_2(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        serde.dump_state_json(validate_state(werner_matrix(0.5)), str(path))
        filter_path = tmp_path / "f.json"
        filter_path.write_bytes(b"\xff{}")
        code, out = run_cli(capsys, "filter", str(path), "--filter-a", str(filter_path))
        assert code == 2
        assert out["error"]["type"] == "ParseError"
        assert str(filter_path) in out["error"]["message"]

    def test_optimize_werner_pinned(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        serde.dump_state_json(validate_state(werner_matrix(0.5)), str(path))
        code, doc = run_cli(
            capsys, "filter", str(path), "--optimize", "A", "chsh", "--starts", "4", "--max-iters", "200"
        )
        assert code == 0
        assert doc["optimizer"]["value"] == pytest.approx(0.5 * math.sqrt(2), abs=1e-6)
        assert doc["optimizer"]["party"] == "A"
        assert doc["optimizer"]["starts_used"] == 1  # one seeded polish, whatever the budget
        assert doc["optimizer"]["evaluations"] > 0

    def test_optimize_applies_the_filter_once(self, capsys, tmp_path, monkeypatch):
        # the CLI reports the optimiser's own verified filtered state; the
        # filter is applied once per call, by the optimiser's verification
        rho = rho_m(math.pi / 12, 0.75)
        path = tmp_path / "m.json"
        serde.dump_state_json(rho, str(path))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return apply_one_sided(*args, **kwargs)

        monkeypatch.setattr(filtering_mod, "apply_one_sided", counting)
        monkeypatch.setattr(cli_mod, "apply_one_sided", counting, raising=False)
        code, doc = run_cli(capsys, "filter", str(path), "--optimize", "B", "chsh", "--starts", "3", "--seed", "5")
        assert code == 0
        assert len(calls) == 1
        res = optimize_one_sided(rho, Party.B, Objective.CHSH, starts=3, seed=5)
        filtered, prob = apply_one_sided(rho, res.filter, Party.B)
        assert doc["filtered_state"] == serde.state_to_dict(filtered)
        assert doc["success_probability"] == prob
        assert doc["after"] == serde.report_to_dict(classify(to_r_picture(filtered)))

    def test_tol_reaches_the_filtered_state(self, capsys, tmp_path):
        # accepted with --tol 1e-8 (its least eigenvalue is -5e-9), so the
        # identity-filtered state must be validated with the same tolerance
        path = tmp_path / "s.json"
        rho = np.diag([0.5 + 5e-9, 0.5, 0.0, -5e-9]).astype(complex)
        path.write_text(json.dumps(serde.state_to_dict(DensityMatrix(rho))))
        code, doc = run_cli(capsys, "filter", str(path), "--tol", "1e-8")
        assert code == 0
        assert doc["success_probability"] == pytest.approx(1.0, abs=1e-15)
        code, doc = run_cli(capsys, "filter", str(path))
        assert code == 2
        assert doc["error"]["type"] == "NotPositive"

    def test_optimize_reports_the_winning_start(self, capsys, tmp_path):
        # on this state the reference search's start 2 beats its start 0; the CLI runs one seeded polish,
        # start 0 of 1, and reaches the reference's value
        rho = rho_m(0.1, 0.9)
        path = tmp_path / "m.json"
        serde.dump_state_json(rho, str(path))
        argv = ("filter", str(path), "--optimize", "A", "chsh", "--starts", "6")
        (code, doc), (_, again) = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert code == 0
        opt = doc["optimizer"]
        assert list(opt)[4:7] == ["starts_used", "best_start", "evaluations"]
        assert (opt["best_start"], opt["starts_used"]) == (0, 1)
        assert again["optimizer"] == opt
        value, search = reference_optimum(rho, Party.A, Objective.CHSH, starts=6)
        assert 0 < search.best_start < search.starts_used
        assert opt["value"] >= value - 1e-12
        # the reference's starts after the winner change nothing, and without it the value is lower
        upto = reference_optimum(rho, Party.A, Objective.CHSH, starts=search.best_start + 1)
        before = reference_optimum(rho, Party.A, Objective.CHSH, starts=search.best_start)
        assert upto[0] == value
        assert upto[1].best_start == search.best_start
        assert before[0] < value

    def test_converged_describes_the_winning_start(self, capsys, tmp_path, monkeypatch):
        # the reference search's start 0 wins after stopping on max_iters = 30, and its starts 1 and 2
        # converge on the d = 1 face, below it; the CLI's one polish reports its own stop
        rho = rho_mm(0.6015, 0.5)
        path = tmp_path / "mm.json"
        serde.dump_state_json(rho, str(path))
        runs = []
        minimize = filtering_mod.minimize
        monkeypatch.setattr(filtering_mod, "minimize", lambda *a, **k: runs.append(minimize(*a, **k)) or runs[-1])
        argv = ("filter", str(path), "--optimize", "A", "chsh", "--starts", "3", "--max-iters", "30")
        code, doc = run_cli(capsys, *argv)
        assert code == 0
        opt = doc["optimizer"]
        assert (opt["best_start"], opt["starts_used"]) == (0, 1)
        assert [run.success for run in runs] == [opt["converged"]]
        runs.clear()
        value, search = reference_optimum(rho, Party.A, Objective.CHSH, starts=3, max_iters=30)
        assert (search.best_start, search.starts_used) == (0, 3)
        assert [run.success for run in runs] == [False, True, True]
        assert all(-run.fun < value - 1e-4 for run in runs[1:])
        assert search.converged is False

    def test_optimize_leaves_the_identity_trap(self, capsys, tmp_path):
        # the 2-start search this optimiser replaced returned the unfiltered 0.27446 here; 8 starts reached 0.82733
        path = tmp_path / "g.json"
        serde.dump_state_json(sample_state(SeededRng(77, 26), rank=4), str(path))
        code, doc = run_cli(capsys, "filter", str(path), "--optimize", "A", "chsh", "--starts", "2")
        assert code == 0
        assert doc["before"]["b"] == pytest.approx(0.27446016, abs=1e-8)
        assert doc["optimizer"]["value"] >= 0.82733469570880

    def test_starts_and_seed_leave_chsh_stdout_unchanged(self, capsys, tmp_path):
        path = tmp_path / "mm.json"
        serde.dump_state_json(rho_mm(0.6015, 0.5), str(path))
        argv = ("filter", str(path), "--optimize", "B", "chsh")
        outs = []
        for starts, seed in (("1", "0"), ("2", "0"), ("9", "0"), ("2", "7"), ("32", "123456")):
            assert main([*argv, "--starts", starts, "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert all(out == outs[0] for out in outs[1:])
        for bad in (("--starts", "0"), ("--seed", "-1")):
            assert run_cli(capsys, *argv, *bad)[0] == 2

    def test_optimize_excludes_filter_files(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        serde.dump_state_json(validate_state(werner_matrix(0.5)), str(path))
        code, doc = run_cli(
            capsys, "filter", str(path), "--optimize", "A", "chsh", "--filter-a", str(path)
        )
        assert code == 2
        assert doc["error"]["type"] == "DomainError"

    def test_filtered_state_written(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        out = tmp_path / "filtered.json"
        serde.dump_state_json(validate_state(werner_matrix(0.5)), str(path))
        code, doc = run_cli(capsys, "filter", str(path), "--out", str(out))
        assert code == 0
        serde.load_state_json(str(out))

    def test_bad_optimize_party(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        serde.dump_state_json(validate_state(werner_matrix(0.5)), str(path))
        code, doc = run_cli(capsys, "filter", str(path), "--optimize", "C", "chsh")
        assert code == 2
        assert doc == {"error": {"type": "DomainError", "message": "--optimize party must be A or B, got 'C'"}}

    def test_optimize_writes_its_stage_line_to_stderr_only(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("HQC_SEED", raising=False)
        path = tmp_path / "m.json"
        serde.dump_state_json(rho_m(math.pi / 12, 0.75), str(path))
        code = main(["filter", str(path), "--optimize", "A", "chsh", "--starts", "3"])
        captured = capsys.readouterr()
        assert code == 0
        line = re.fullmatch(
            r"filter: exact seed and one polish, (\d+) evaluations; search \d+\.\d{4}s; verify \d+\.\d{4}s\n",
            captured.err,
        )
        assert line, captured.err
        rho = serde.load_state_json(str(path))
        res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=3)
        assert int(line[1]) == res.evaluations
        # stdout is the report alone, byte for byte
        expected = {
            "before": serde.report_to_dict(classify(to_r_picture(rho))),
            "optimizer": serde.one_sided_result_to_dict(res),
            "seed_source": "default",
            "success_probability": res.success_probability,
            "after": serde.report_to_dict(classify(res.filtered_picture)),
            "filtered_state": serde.state_to_dict(res.filtered_state),
        }
        out = io.StringIO()
        serde.write_json(expected, out)
        assert captured.out == out.getvalue()

    def test_exact_f3_writes_its_iterations_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        rho = sample_state(SeededRng(1, 4), rank=4)
        serde.dump_state_json(rho, str(path))
        assert main(["filter", str(path), "--optimize", "A", "f3", "--starts", "2"]) == 0
        captured = capsys.readouterr()
        line = re.fullmatch(
            r"filter: exact F3 solve, (\d+) secular iterations; search \d+\.\d{6}s; verify \d+\.\d{4}s\n",
            captured.err,
        )
        assert line, captured.err
        opt = json.loads(captured.out)["optimizer"]
        assert int(line[1]) == opt["evaluations"] > 0
        assert (opt["starts_used"], opt["best_start"], opt["converged"], opt["at_scale_floor"]) == (1, 0, True, True)

    def test_filter_file_output_is_pinned(self, capsys, tmp_path):
        # stdout of the non-optimising branch, as it was while each report was its own classify call
        # (the hidden values re-recorded with the spin-flip spectrum)
        state_path, filter_path = tmp_path / "m.json", tmp_path / "fa.json"
        serde.dump_state_json(rho_m(math.pi / 6, 0.5), str(state_path))
        filter_path.write_text(json.dumps(serde.filter_to_dict(paper_filter_rho_m(math.pi / 6)[0])))
        code = main(["filter", str(state_path), "--filter-a", str(filter_path)])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "filter_filter_a.json").read_text()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--optimize", "A", "chsh", "--starts", "2"],
            ["--optimize", "C", "chsh"],
            ["--optimize", "B", "f3", "--starts", "0"],
            ["--filter-a", "missing.json"],
            [],
        ],
        ids=["optimize", "bad-party", "no-starts", "missing-filter", "identity"],
    )
    def test_input_report_error_comes_first(self, capsys, tmp_path, extra):
        # accepted with --tol 0.1, the input has an eigenvalue below the normal-form spectrum's guard
        path = tmp_path / "s.json"
        path.write_text(json.dumps(serde.state_to_dict(_complex_spectrum_state())))
        code, doc = run_cli(capsys, "filter", str(path), "--tol", "0.1", *extra)
        assert code == 2
        assert doc == {"error": {"type": "ComplexSpectrum", "message": _classify_error(_complex_spectrum_state())}}

    def test_filtered_report_error_is_its_own(self, capsys, tmp_path, monkeypatch):
        # a filtered state whose report fails gives the error that report gives alone
        path = tmp_path / "m.json"
        serde.dump_state_json(rho_m(math.pi / 12, 0.75), str(path))
        bad = validate_state(_complex_spectrum_state().matrix, 0.1)
        monkeypatch.setattr(cli_mod, "apply_filters", lambda *args: (bad, 1.0))
        code, doc = run_cli(capsys, "filter", str(path))
        assert code == 2
        assert doc == {"error": {"type": "ComplexSpectrum", "message": _classify_error(bad)}}

    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    def test_optimize_rejects_max_iters_below_one(self, capsys, tmp_path, max_iters):
        path = tmp_path / "m.json"
        serde.dump_state_json(rho_m(0.5, 0.8), str(path))
        code, doc = run_cli(
            capsys, "filter", str(path), "--optimize", "A", "chsh", "--starts", "2", "--max-iters", max_iters
        )
        assert code == 2
        assert doc["error"]["type"] == "DomainError"


SRC = str(Path(hqc.__file__).resolve().parents[1])


class TestProcess:
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_2_without_traceback(self, tmp_path, unbuffered):
        # unbuffered, the JSON write itself fails; buffered, only the flush does
        path = tmp_path / "m.json"
        serde.dump_state_json(rho_m(math.pi / 12, 0.75), str(path))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hqc.cli", "analyze", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_benchmark_couplings_after_importing_the_cli(self):
        # the benchmark records hqc.kernels.ACTIVE_KERNEL, traces hqc.montecarlo.sweep_stats, and
        # imports these names; its scan check calls brute_force_chsh, which therefore stays in hqc
        code = (
            f"import sys; sys.path.insert(0, {SRC!r}); import hqc.cli, inspect; "
            "from hqc import SeededRng, brute_force_chsh, chsh_max, f3_max, to_r_picture, "
            "rho_m, rho_mm, rho_qd, sample_state; "
            "from hqc.serde import dump_state_json, state_from_dict; "
            "f = hqc.montecarlo.sweep_stats; "
            "print(hqc.kernels.ACTIVE_KERNEL, inspect.isfunction(f), f.__module__)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60).stdout
        assert out.split() == ["numpy", "True", "hqc.montecarlo"]
