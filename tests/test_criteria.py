import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqc.criteria as criteria_mod
import hqc.filtering as filtering_mod
from hqc import (
    PAULI_KRON,
    ComplexSpectrum,
    DegenerateNormalForm,
    DomainError,
    InaccessibilityReport,
    LocalFilter,
    Objective,
    Party,
    RMatrix,
    SeededRng,
    Thresholds,
    apply_one_sided,
    chsh_max,
    classify,
    classify_batch,
    compute_ellipsoid,
    conjecture_bound_chsh,
    f3_max,
    from_r_picture,
    hidden_chsh,
    hidden_f3,
    one_sided_f3_suprema,
    optimize_one_sided,
    ppt_entangled,
    rho_m,
    rho_mm,
    rho_qd,
    sample_state,
    to_r_picture,
)
from hqc.correlations import chsh_f3_maxima
from hqc.montecarlo import VIOLATION_TOL

from support import tight_chsh_picture


class TestConjectureBound:
    def test_unconstrained_value(self):
        assert conjecture_bound_chsh(0.0) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_threshold_value(self):
        assert conjecture_bound_chsh(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_intermediate_value(self):
        assert conjecture_bound_chsh(0.3) == pytest.approx(math.sqrt(1.4), abs=1e-15)
        assert conjecture_bound_chsh(0.3) == pytest.approx(1.1832159566199232, abs=1e-12)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            conjecture_bound_chsh(-0.1)
        with pytest.raises(DomainError):
            conjecture_bound_chsh(1.1)

    @settings(max_examples=50, deadline=None)
    @given(c1=st.floats(0, 1), c2=st.floats(0, 1))
    def test_non_increasing(self, c1, c2):
        lo, hi = min(c1, c2), max(c1, c2)
        assert conjecture_bound_chsh(hi) <= conjecture_bound_chsh(lo) + 1e-15


class TestTightChshFamily:
    """The family R(c) of :func:`support.tight_chsh_picture`, where B = sqrt(2 (1 - c)) meets the
    conjectured bound f(c_B) for c <= 1/2 and Alice's certificate switches on above it.

    Measured on this grid: B within 2.7e-16 relative of sqrt(2 (1 - c)) and 2.2e-16 of the 50-digit
    value, c_B = c to the bit, c_A within 1.5e-14 relative of c / (1 + c), B - f(c_B) at most 2.2e-16,
    and a least eigenvalue of rho of -5.6e-17.
    """

    GRID = np.linspace(0.0, 0.999, 200)

    def test_chsh_maximum_is_the_closed_form(self):
        t = np.array([tight_chsh_picture(float(c)).t for c in self.GRID])
        b, _ = chsh_f3_maxima(t)
        exact = np.sqrt(2.0 * (1.0 - self.GRID))
        assert (np.abs(b - exact) <= 1e-14 * exact).all()
        with mpmath.workdps(50):
            for b_i, t_i in zip(b.tolist(), t):
                m = mpmath.matrix(t_i.tolist())  # the float entries are exact
                w = sorted(mpmath.eigsy(m * m.T, eigvals_only=True))
                reference = mpmath.sqrt(w[1] + w[2])
                assert abs(b_i - reference) <= 1e-15 * reference

    def test_centres_and_bound(self):
        for c in self.GRID.tolist():
            r = tight_chsh_picture(c)
            assert np.linalg.eigvalsh(from_r_picture(r).matrix).min() >= -1e-15  # a physical state
            report = classify(r)
            assert report.c_b == pytest.approx(c, rel=1e-15, abs=1e-15)
            assert report.c_a == pytest.approx(c / (1.0 + c), rel=1e-13, abs=1e-15)
            assert report.b - conjecture_bound_chsh(c) <= VIOLATION_TOL

    def test_alice_certificate_switches_on_above_one_half(self):
        below = classify(tight_chsh_picture(0.5 - 1e-9))
        above = classify(tight_chsh_picture(0.5 + 1e-9))
        assert "A_INACCESSIBLE_CHSH" not in below.flags
        assert "A_INACCESSIBLE_CHSH" in above.flags


def _f3_bound_on_tight_family(c):
    """f_F3(c) = sqrt(1 + (2 - 3c)^2 / (2 - 2c - c^2)), the one-sided F3 supremum of R(c) for c <= 2/3."""
    return np.sqrt(1.0 + (2.0 - 3.0 * c) ** 2 / (2.0 - 2.0 * c - c * c))


def _alice_filter_f3_squared(c, d):
    """F3^2 = 1 + d^2 [(8 - 12c) - 4c(1 - c) d^2] / (1 + d^2)^2 of R(c) after Alice's filter diag(d, 1),
    in the arithmetic of its arguments (floats or mpmath numbers)."""
    d2 = d * d
    return 1 + d2 * ((8 - 12 * c) - 4 * c * (1 - c) * d2) / (1 + d2) ** 2


def _filtered_f3_squared_50_digits(c, d):
    """F3^2 of R(c) after Alice's filter diag(d, 1), by the density route in 50-digit mpmath:
    rho = (1/4) sum R_ij sigma_i (x) sigma_j, then K rho K / Tr with K = diag(d, d, 1, 1)."""
    with mpmath.workdps(50):
        c, d = mpmath.mpf(c), mpmath.mpf(d)
        s = mpmath.sqrt(1 - c)
        r = [[1, 0, 0, c], [0, -s, 0, 0], [0, 0, -s, 0], [0, 0, 0, -(1 - c)]]
        pauli = [[mpmath.matrix(PAULI_KRON[i, j].tolist()) for j in range(4)] for i in range(4)]  # exact entries
        rho = sum((r[i][j] * pauli[i][j] for i in range(4) for j in range(4)), mpmath.zeros(4, 4)) / 4
        k = mpmath.diag([d, d, 1, 1])
        rho = k * rho * k
        tr = sum(rho[a, a] for a in range(4))
        return sum(
            mpmath.re(sum((pauli[i][j] * rho)[a, a] for a in range(4)) / tr) ** 2 for i in range(1, 4) for j in range(1, 4)
        )


class TestKnownF3Counterexample:
    """A known counterexample to the F3 literal 0.66 of ``Thresholds.c_f3``, pinned as the program
    stands: these tests record that the certificate is refuted, and do not require it to be.

    On R(c) (:func:`support.tight_chsh_picture`, c_B = c), Alice's filter diag(d, 1) gives exactly
    F3(d)^2 = 1 + d^2 [(8 - 12c) - 4c(1 - c) d^2] / (1 + d^2)^2, whose maximum over d is f_F3(c) =
    sqrt(1 + (2 - 3c)^2 / (2 - 2c - c^2)) > 1 for every c < 2/3. So for c_B in (0.66, 2/3) the
    report's A_INACCESSIBLE_F3 sits next to a filter that reveals F3 > 1, and ``rho_qd``, on whose
    Alice orbit R(c_B) lies, is certified F3-inaccessible by both parties for p in (0.5, 0.50746],
    although either party alone reaches F3 > 1.

    Measured: the filtered state's F3 within 2.2e-16 of the closed form and 2.5e-16 of the 50-digit
    value, the closed form within 5.4e-51 of the 50-digit value, and the exact solve within 4.4e-16
    of f_F3 on c in [0, 0.66].
    """

    def test_alice_filter_closed_form(self):
        for c in np.linspace(0.0, 0.66, 12).tolist():
            rho = from_r_picture(tight_chsh_picture(c))
            for d in (1.0, 0.5, 0.2, 0.05, 0.01):
                filtered, _ = apply_one_sided(rho, LocalFilter(np.diag([d, 1.0])), Party.A)
                f3 = float(chsh_f3_maxima(to_r_picture(filtered).t)[1])
                assert abs(f3 - math.sqrt(_alice_filter_f3_squared(c, d))) <= 1e-15
                with mpmath.workdps(50):
                    reference = _filtered_f3_squared_50_digits(c, d)
                    closed = _alice_filter_f3_squared(mpmath.mpf(c), mpmath.mpf(d))
                    assert abs(closed - reference) <= mpmath.mpf("1e-45")
                    assert abs(f3 - mpmath.sqrt(reference)) <= 1e-15

    def test_exact_solve_is_the_closed_form_supremum(self):
        c = np.linspace(0.0, 0.66, 67)
        exact = one_sided_f3_suprema(np.stack([tight_chsh_picture(x).r for x in c.tolist()]), Party.A)
        assert exact.converged.all()
        assert np.abs(exact.value - _f3_bound_on_tight_family(c)).max() <= 1e-15

    def test_certified_tight_family_state_reaches_f3_above_one(self):
        r = tight_chsh_picture(0.661)
        assert "A_INACCESSIBLE_F3" in classify(r).flags
        res = optimize_one_sided(from_r_picture(r), Party.A, Objective.F3, picture=r)
        assert res.value > 1.0 + 1e-4
        assert res.value == pytest.approx(_f3_bound_on_tight_family(0.661), abs=1e-12)

    def test_certified_quasi_distillable_state_reaches_f3_above_one(self):
        p = 0.505
        rho = rho_qd(p)
        report = classify(to_r_picture(rho))
        assert "AB_INACCESSIBLE_F3" in report.flags and report.f3 < 1.0
        c_b = 2.0 * (1.0 - p) / (2.0 - p)  # the closed-form QD centre
        for party in Party:
            value = optimize_one_sided(rho, party, Objective.F3).value
            assert value > 1.0 + 1e-4, party
            assert value == pytest.approx(_f3_bound_on_tight_family(c_b), abs=1e-9), party


class TestThresholds:
    def test_defaults(self):
        th = Thresholds()
        assert th.c_chsh == 0.5
        assert th.c_f3 == 0.66

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Thresholds(c_chsh=0.7, c_f3=0.6)
        with pytest.raises(DomainError):
            Thresholds(c_chsh=0.0, c_f3=0.5)


class TestCertify:
    def test_quasi_distillable_certifies_both_objectives(self):
        # centre magnitude 2/3 > 0.66 > 0.5
        flags = classify(to_r_picture(rho_qd(0.5))).flags
        assert {"A_INACCESSIBLE_CHSH", "A_INACCESSIBLE_F3", "B_INACCESSIBLE_CHSH"} <= flags

    def test_singlet_not_certified(self, singlet):
        flags = classify(to_r_picture(singlet)).flags
        assert "A_INACCESSIBLE_CHSH" not in flags
        assert "B_INACCESSIBLE_F3" not in flags

    def test_uses_opposite_party_centre(self):
        # rho_m has c_B = 0 but c_A > 0.5 at these parameters, so only
        # Bob's filters are certified useless
        flags = classify(to_r_picture(rho_m(math.pi / 12, 0.75))).flags
        assert "B_INACCESSIBLE_CHSH" in flags
        assert "A_INACCESSIBLE_CHSH" not in flags

    def test_threshold_override(self):
        r = to_r_picture(rho_qd(0.8))  # centre magnitude = 1/3
        assert "A_INACCESSIBLE_CHSH" not in classify(r).flags
        assert "A_INACCESSIBLE_CHSH" in classify(r, Thresholds(c_chsh=0.25, c_f3=0.66)).flags


class TestClassify:
    def test_singlet_has_no_flags(self, singlet):
        report = classify(to_r_picture(singlet))
        assert report.flags == frozenset()
        assert report.b == pytest.approx(math.sqrt(2), abs=1e-10)
        assert report.entangled
        assert report.conjecture_conditional

    def test_quasi_distillable_case5(self):
        report = classify(to_r_picture(rho_qd(0.4)))
        assert report.b == pytest.approx(math.sqrt(0.32), abs=1e-10)
        assert report.c_a == pytest.approx(0.75, abs=1e-10)
        assert report.c_b == pytest.approx(0.75, abs=1e-10)
        assert report.hb_star == pytest.approx(math.sqrt(2), abs=1e-8)
        expected = {
            "NO_CHSH_VIOLATION",
            "HIDDEN_CHSH",
            "MAXIMAL_HIDDEN_CHSH",
            "A_INACCESSIBLE_CHSH",
            "B_INACCESSIBLE_CHSH",
            "AB_INACCESSIBLE_CHSH",
            "NO_F3_VIOLATION",
            "HIDDEN_F3",
            "MAXIMAL_HIDDEN_F3",
            "A_INACCESSIBLE_F3",
            "B_INACCESSIBLE_F3",
            "AB_INACCESSIBLE_F3",
        }
        assert report.flags == frozenset(expected)

    def test_rho_m_case3(self):
        # B-inaccessible yet A-accessible hidden CHSH violation
        report = classify(to_r_picture(rho_m(math.pi / 12, 0.75)))
        assert "HIDDEN_CHSH" in report.flags
        assert "B_INACCESSIBLE_CHSH" in report.flags
        assert "A_INACCESSIBLE_CHSH" not in report.flags
        assert "AB_INACCESSIBLE_CHSH" not in report.flags

    def test_flag_logic_invariants(self, ket00):
        points = [to_r_picture(rho_qd(p)) for p in (0.1, 0.4, 0.7, 0.95)]
        points += [to_r_picture(rho_mm(t, p)) for t in (0.05, 0.4) for p in (0.2, 0.6)]
        points += [to_r_picture(sample_state(SeededRng(61, i))) for i in range(20)]
        points += [to_r_picture(sample_state(SeededRng(63, i), rank=1)) for i in range(5)]
        points.append(to_r_picture(ket00))
        degenerate = 0
        for r in points:
            report = classify(r)
            f = report.flags
            # classify reads each value once; every one equals its scalar API, to the bit
            assert report.b == chsh_max(r)[0]
            assert report.f3 == f3_max(r)
            assert report.c_a == np.linalg.norm(compute_ellipsoid(r, Party.A).centre, axis=-1)
            assert report.c_b == np.linalg.norm(compute_ellipsoid(r, Party.B).centre, axis=-1)
            assert report.entangled == ppt_entangled(r)[0]
            try:
                hidden = (hidden_chsh(r), hidden_f3(r))
            except DegenerateNormalForm:
                hidden = None
                degenerate += 1
            assert report.degenerate_normal_form == (hidden is None)
            if hidden is None:
                assert math.isnan(report.hb_star) and math.isnan(report.hf3_star)
            else:
                assert (report.hb_star, report.hf3_star) == hidden
            for name in ("CHSH", "F3"):
                assert (f"AB_INACCESSIBLE_{name}" in f) == (
                    f"A_INACCESSIBLE_{name}" in f and f"B_INACCESSIBLE_{name}" in f
                )
                if f"MAXIMAL_HIDDEN_{name}" in f:
                    assert f"HIDDEN_{name}" in f
        assert degenerate >= 1  # |00> at least takes the NaN branch

    def test_reads_each_quantity_once(self, monkeypatch):
        # a batch of n, like a batch of one, takes one normal-form spectrum solve (one eigh of rho
        # and one SVD of its spin-flip matrix), one symmetric eigensolve (PPT; B and F3 are closed
        # forms), and no validated density matrix
        calls = {"spectra": 0, "eigh": 0, "svd": 0, "eigvalsh": 0, "from_r_picture": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        r = to_r_picture(rho_mm(0.3, 0.6))
        batch = np.stack([to_r_picture(rho_mm(0.3, p)).r for p in (0.2, 0.6, 0.9)] + [to_r_picture(rho_qd(0.4)).r])
        spectra = filtering_mod.normal_form_spectra
        monkeypatch.setattr(filtering_mod, "normal_form_spectra", counting("spectra", spectra))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(criteria_mod, "from_r_picture", counting("from_r_picture", from_r_picture))
        classify(r)
        assert calls == {"spectra": 1, "eigh": 1, "svd": 1, "eigvalsh": 1, "from_r_picture": 0}
        calls.update(dict.fromkeys(calls, 0))
        assert len(classify_batch(batch)) == len(batch)
        assert calls == {"spectra": 1, "eigh": 1, "svd": 1, "eigvalsh": 1, "from_r_picture": 0}

    def test_product_states_of_rho_m_are_not_hidden(self):
        # rho_m(0, p) = |0><0| (x) (p |0><0| + (1 - p) 1/2) is a product state for every p: its normal
        # form vanishes, so no hidden flag may be set (p = 0.34 once got all four from roundoff)
        for p in np.linspace(0.0, 1.0, 101).tolist():
            report = classify(to_r_picture(rho_m(0.0, p)))
            assert math.isnan(report.hb_star) and math.isnan(report.hf3_star), p
            assert report.degenerate_normal_form, p
            assert not {flag for flag in report.flags if "HIDDEN" in flag}, p

    def test_degenerate_normal_form_reported_not_raised(self, ket00):
        report = classify(to_r_picture(ket00))
        assert report.degenerate_normal_form
        assert math.isnan(report.hb_star)
        assert "HIDDEN_CHSH" not in report.flags
        # the point-ellipsoid convention still certifies: centre magnitude 1
        assert report.c_a == pytest.approx(1.0, abs=1e-12)
        assert "A_INACCESSIBLE_CHSH" in report.flags

    def test_optimizer_witness_flags(self):
        # Alice's one-sided filter reveals the violation, Bob's cannot
        rho = rho_m(math.pi / 12, 0.75)
        value = {party: optimize_one_sided(rho, party, Objective.CHSH).value for party in Party}
        assert value[Party.A] > 1.0 + 1e-6
        assert value[Party.B] <= 1.0 + 1e-6


REPORT_NAMES = (*InaccessibilityReport._fields, "degenerate_normal_form", "conjecture_conditional")


def report_bits(report) -> dict:
    """Every field of a report and its two derived members, floats by repr so that NaN equals NaN
    and the last bit counts."""
    return {name: repr(v) if isinstance(v, float) else v for name in REPORT_NAMES for v in [getattr(report, name)]}


class TestClassifyBatch:
    def test_rows_equal_scalar_classify_to_the_bit(self, ket00):
        pictures = [to_r_picture(sample_state(SeededRng(64, i), rank=k)) for k in (1, 2, 3, 4) for i in range(3)]
        pictures.insert(5, to_r_picture(ket00))  # degenerate normal form, between finite rows
        pictures += [to_r_picture(rho_mm(0.0, p)) for p in (0.0, 0.3, 0.6, 1.0)]  # pure marginals
        pictures += [to_r_picture(rho_qd(p)) for p in (0.1, 0.4, 0.7, 0.95)]  # defective spectrum
        pictures += [to_r_picture(sample_state(SeededRng(65, i), rank=4)) for i in range(3)]
        reports = classify_batch(np.stack([r.r for r in pictures]))
        assert len(reports) == len(pictures)
        for r, report in zip(pictures, reports):
            assert report_bits(report) == report_bits(classify(r))
        nan_rows = [i for i, report in enumerate(reports) if math.isnan(report.hb_star)]
        assert 5 in nan_rows and 4 not in nan_rows and 6 not in nan_rows
        assert all(reports[i].degenerate_normal_form for i in nan_rows)

    def test_before_and_after_pairs_equal_scalar_calls(self, ket00):
        # hqc filter reports on the input and the filtered state as one batch of two
        states = [sample_state(SeededRng(66, i), rank=1 + i % 4) for i in range(6)]
        states += [rho_m(0.5, 0.8), rho_qd(0.6), rho_qd(1.0), ket00]
        for i, rho in enumerate(states):
            party, objective = (Party.A, Party.B)[i % 2], (Objective.CHSH, Objective.F3)[i // 2 % 2]
            before = to_r_picture(rho)
            after = optimize_one_sided(rho, party, objective).filtered_picture
            pair = classify_batch(np.stack([before.r, after.r]))
            alone = [classify(before), classify(after)]
            assert [report_bits(report) for report in pair] == [report_bits(report) for report in alone], i

    def test_one_unphysical_row_raises(self):
        # a strongly non-physical correlation picture with rotational T
        bad = np.eye(4)
        bad[1, 1] = bad[2, 2] = 0.0
        bad[1, 2], bad[2, 1] = -1.0, 1.0
        bad[0, 3], bad[3, 0], bad[3, 3] = 0.9, -0.9, 0.1
        good = to_r_picture(rho_mm(0.3, 0.6)).r
        with pytest.raises(ComplexSpectrum):
            classify(RMatrix(bad))
        with pytest.raises(ComplexSpectrum):
            classify_batch(np.stack([good, bad, good]))


@pytest.mark.usefixtures("recorded_platform")
class TestClassifyBitPins:
    """SHA-256 digests of every :func:`report_bits` field of ``classify`` on a defective
    spectrum, pure marginals and three Ginibre states, recorded when the hidden values moved
    to the spin-flip spectrum. The platform guard is that of ``TestOutputBitPins``."""

    STATES = {
        "rho_qd": lambda: rho_qd(0.6),  # defective normal-form spectrum
        "rho_mm": lambda: rho_mm(0.0, 0.5),  # pure marginals
        "ginibre_r2": lambda: sample_state(SeededRng(70, 0), rank=2),
        "ginibre_r3": lambda: sample_state(SeededRng(70, 1), rank=3),
        "ginibre_r4": lambda: sample_state(SeededRng(70, 2), rank=4),
    }

    @pytest.mark.parametrize(
        "state, digest",
        [
            ("rho_qd", "ec0b7a651ce0519aa779f993833d8bc40f272e530807ebcac0aff2e8c2cd60e0"),
            ("rho_mm", "17c856bbbe2ce3594525e6ed60e1222d18652345a6caeb5a7d3b76799533e298"),
            ("ginibre_r2", "444818640e511a9b350ca48422034897a058054fa4854066f130a4af197fbe99"),
            ("ginibre_r3", "a8689733d9a0e1cb40affef1b75b8dec0ff903ac9ed9600a2ff537b9927b0c8e"),
            ("ginibre_r4", "d9e82d8f3257c3571b7300255db0c2dfcbd6d1c8bb115b0aebf1f730a5e142f4"),
        ],
        ids=list(STATES),
    )
    def test_report_bits(self, state, digest):
        bits = report_bits(classify(to_r_picture(self.STATES[state]())))
        bits["flags"] = sorted(bits["flags"])  # a frozenset's order follows the string hash seed
        assert hashlib.sha256(repr(sorted(bits.items())).encode()).hexdigest() == digest


class TestCertificationSoundness:
    def test_optimizer_never_contradicts_certificates(self):
        # on certified states the certified party's one-sided optimum must
        # stay at or below the classical bound; an exceedance would be a
        # conjecture counterexample and must surface loudly
        certified = []
        for p in np.linspace(0.05, 0.6, 30):
            certified.append((to_r_picture(rho_qd(float(p))), Party.A))
        for theta in np.linspace(0.02, math.pi / 12, 10):
            for p in (0.6, 0.75, 0.85):
                r = to_r_picture(rho_m(float(theta), p))
                if "B_INACCESSIBLE_CHSH" in classify(r).flags:
                    certified.append((r, Party.B))
        i = 0
        while len(certified) < 100:
            r = to_r_picture(sample_state(SeededRng(62, i)))
            i += 1
            flags = classify(r).flags
            for party in (Party.A, Party.B):
                if f"{party.value}_INACCESSIBLE_CHSH" in flags:
                    certified.append((r, party))
        exceedances = []
        for r, party in certified[:100]:
            res = optimize_one_sided(from_r_picture(r), party, Objective.CHSH)
            if res.value > 1.0 + 1e-6:
                exceedances.append((r.r.tolist(), party.value, res.value))
        assert exceedances == []
