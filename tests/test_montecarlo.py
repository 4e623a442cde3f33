import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from hqc import (
    Party,
    SweepConfig,
    Thresholds,
    chsh_max,
    classify_batch,
    compute_ellipsoid,
    run_sweep,
    serde,
)
from hqc.criteria import conjecture_bound_chsh
from hqc.errors import DomainError
from hqc.montecarlo import STAGES, _TILE, _bin_side, _empty_bins, _run_chunk, _violations_in_chunk, sweep_stats
from hqc.states import (
    DensityMatrix,
    SeededRng,
    ginibre_factors,
    ginibre_tiles,
    pictures_from_factors,
    states_from_factors,
    to_r_picture,
)

from conftest import complex_path_states, ginibre_and_pure_marginal_factors


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SweepConfig(n=-1)
        with pytest.raises(DomainError):
            SweepConfig(n=10, bins=0)
        with pytest.raises(DomainError):
            SweepConfig(n=10, workers=0)
        for mix in [(0, 0, 0, 0), (math.nan, 1, 0, 0), (0, math.inf, 0, 0), (1e308, 1e308, 0, 0)]:
            with pytest.raises(DomainError):
                SweepConfig(n=10, rank_mix=mix)
        with pytest.raises(DomainError):
            SweepConfig(n=0, seed=-1)


class TestRunSweep:
    def test_empty_sweep(self):
        summary = run_sweep(SweepConfig(n=0, seed=1))
        assert summary.violations == ()
        assert serde.envelope_to_csv(summary.bins) == "c_mid,max_B,max_F3,count\n"
        assert summary.bins.count.sum() == 0

    def test_deterministic(self):
        a = run_sweep(SweepConfig(n=20_000, seed=9))
        b = run_sweep(SweepConfig(n=20_000, seed=9))
        assert a == b

    def test_partition_invariance(self):
        a = run_sweep(SweepConfig(n=30_000, seed=5, chunk_size=8192, workers=1))
        b = run_sweep(SweepConfig(n=30_000, seed=5, chunk_size=8192, workers=4))
        assert a == dataclasses.replace(b, config=a.config)

    def test_no_violations_and_bound_respected(self):
        # both parties' envelopes lie under the bound at their bins' lower edges; the least
        # margins measured are 0.0044 against c_A and 0.0025 against c_B
        summary = run_sweep(SweepConfig(n=100_000, seed=42, workers=2))
        assert summary.violations == ()
        bins = summary.bins
        assert bins.count.sum(axis=1).tolist() == [100_000, 100_000]
        lower_edge = np.arange(summary.config.bins) / summary.config.bins
        for party, max_b, max_f3, count in zip(Party, bins.max_b, bins.max_f3, bins.count, strict=True):
            occupied = count > 0
            assert (max_b[occupied] <= conjecture_bound_chsh(lower_edge[occupied]) + 1e-6).all(), party
            assert (max_b[occupied] <= math.sqrt(2) + 1e-8).all(), party
            assert (max_f3[occupied] <= math.sqrt(3) + 1e-8).all(), party
            assert np.isneginf(max_b[~occupied]).all() and np.isneginf(max_f3[~occupied]).all(), party
        # the envelope CSV holds Bob's occupied bins in ascending centre order
        rows = [[float(x) for x in line.split(",")] for line in serde.envelope_to_csv(bins).splitlines()[1:]]
        occupied = np.flatnonzero(bins.count[1])
        assert [row[0] for row in rows] == ((occupied + 0.5) / summary.config.bins).tolist()
        assert [row[1:] for row in rows] == np.stack(
            [bins.max_b[1, occupied], bins.max_f3[1, occupied], bins.count[1, occupied]], axis=1
        ).tolist()
        # near-Bell-diagonal samples populate the lowest centre bin, whose
        # running maximum climbs towards sqrt(2) with sample size
        assert rows[0][0] < 0.01
        assert rows[0][1] > 1.2

    def test_rank_one_reenabled(self):
        summary = run_sweep(SweepConfig(n=5_000, seed=3, rank_mix=(0.25, 0.25, 0.25, 0.25)))
        assert (summary.bins.count.sum(axis=1) + summary.bins.degenerate).tolist() == [5_000, 5_000]

    def test_counts_split_by_side(self):
        summary = run_sweep(SweepConfig(n=10_000, seed=8))
        assert (summary.bins.count.sum(axis=1) + summary.bins.degenerate).tolist() == [10_000, 10_000]


class TestViolationMachinery:
    def test_singlet_record_is_consistent(self):
        # b = sqrt(2) at centre 0 saturates the conjectured bound exactly
        g = np.zeros((1, 4, 4), dtype=complex)
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        g[0, :, 0] = psi
        config = SweepConfig(n=1, seed=0)
        b, f3, c, ok = stats = sweep_stats(g.real, g.imag)
        assert b[0] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert c[1, 0] == pytest.approx(0.0, abs=1e-12)
        violations = _violations_in_chunk(config, 0, g.real, g.imag, stats)
        assert violations == []

    def test_point_ellipsoid_magnitudes_reach_no_bound(self):
        # the random pure product's point-ellipsoid magnitude rounds to 1 + 2^-52 here, outside
        # the conjectured bound's domain; the scan reads only ok rows, so it does not raise
        g = ginibre_and_pure_marginal_factors(SeededRng(5, 0).generator())
        stats = sweep_stats(g.real, g.imag)
        c, ok = stats[2:]
        assert (c[~ok] > 1.0).any()
        assert _violations_in_chunk(SweepConfig(n=len(g)), 0, g.real, g.imag, stats) == []

    def test_threshold_violations_are_recorded_with_state(self):
        # shrink the thresholds so ordinary violating states become
        # "counterexamples"; exercises recording and state reconstruction
        config = SweepConfig(n=4_000, seed=21, thresholds=Thresholds(c_chsh=0.01, c_f3=0.02), chunk_size=1000)
        summary = run_sweep(config)
        assert len(summary.violations) > 0
        v = summary.violations[0]
        assert v.reasons
        assert np.trace(v.state).real == pytest.approx(1.0, abs=1e-12)
        factor = np.linalg.cholesky(v.state + 1e-14 * np.eye(4))[None]
        recomputed = sweep_stats(factor.real, factor.imag)
        assert recomputed[0][0] == pytest.approx(v.b, abs=1e-5)

    def test_dumped_states_match_the_complex_path_bitwise(self):
        # the dump rebuilds G = x + i y for the violators only; its states keep every bit of
        # the complex path's, although masked entries of G may differ in the sign of zero
        config = SweepConfig(
            n=4_000, seed=21, rank_mix=(1, 1, 1, 1), thresholds=Thresholds(c_chsh=0.01, c_f3=0.02), chunk_size=1000
        )
        summary = run_sweep(config)
        assert len(summary.violations) > 100
        mix = np.asarray(config.rank_mix, dtype=float)
        oracle = []
        for chunk_index in range(4):
            gen = SeededRng(config.seed, chunk_index).generator()
            oracle.append(complex_path_states(gen, gen.choice(np.arange(1, 5), size=1000, p=mix / mix.sum())))
        oracle = np.concatenate(oracle)
        for v in summary.violations:
            assert v.state.tobytes() == oracle[v.index].tobytes()

    def test_indices_are_global_and_sorted(self):
        config = SweepConfig(n=4_000, seed=21, thresholds=Thresholds(c_chsh=0.01, c_f3=0.02), chunk_size=1000)
        summary = run_sweep(config)
        idx = [v.index for v in summary.violations]
        assert idx == sorted(idx)
        assert idx[-1] < 4_000
        assert idx[-1] >= 1000  # violations occur beyond the first chunk


class TestKernelAgreement:
    def test_kernel_matches_scalar_api(self):
        # The kernel's Gram-spectrum B/F3 against sqrt(s1^2 + s2^2) and
        # sqrt(s . s) from the SVD singular values that chsh_max reports, and
        # its centres and ok masks against compute_ellipsoid, on 2,000
        # Ginibre states of ranks 1-4 plus four states with pure marginals.
        # Required 1e-12; measured 7.8e-16 for B/F3 and 7.1e-14 for the
        # centres, whose gamma^2 (about 1,000 on the worst rank-1 state)
        # amplifies R's last-bit differences from the complex path.
        g = ginibre_and_pure_marginal_factors(SeededRng(1234, 0).generator())
        b, f3, c, ok = sweep_stats(g.real, g.imag)
        assert ok[:, -4:].tolist() == [[False, False, True, False], [False, False, False, True]]
        for i, rho in enumerate(states_from_factors(g)):
            r = to_r_picture(DensityMatrix(rho))
            s = np.array(chsh_max(r)[1])
            assert b[i] == pytest.approx(math.sqrt(s[0] ** 2 + s[1] ** 2), abs=1e-12)
            assert f3[i] == pytest.approx(math.sqrt(s @ s), abs=1e-12)
            for k, party in enumerate(Party):
                e = compute_ellipsoid(r, party)
                assert ok[k, i] == (not e.degenerate)
                assert c[k, i] == pytest.approx(np.linalg.norm(e.centre), abs=1e-12)

    def test_sweep_and_classify_give_the_same_centre_bits(self):
        # both read centre_magnitudes: on one tile of Ginibre states of ranks 1-4 and the four
        # pure-marginal states, the sweep's magnitudes are classify's c_a and c_b to the bit,
        # on the ok rows it bins and on the point-ellipsoid rows it does not
        g = ginibre_and_pure_marginal_factors(SeededRng(1234, 0).generator())
        _, _, c, ok = sweep_stats(g.real, g.imag)
        reports = classify_batch(pictures_from_factors(g.real, g.imag))
        classified = np.array([[report.c_a for report in reports], [report.c_b for report in reports]])
        assert np.count_nonzero(~ok) == 6
        assert c.tobytes() == classified.tobytes()


def _whole_chunk_reference(config, chunk_index):
    """What _run_chunk returned before tiling: every stage on the whole chunk at once."""
    start = chunk_index * config.chunk_size
    count = min(config.chunk_size, config.n - start)
    gen = SeededRng(config.seed, chunk_index).generator()
    mix = np.asarray(config.rank_mix, dtype=float)
    ranks = gen.choice(np.arange(1, 5), size=count, p=mix / mix.sum())
    x, y = ginibre_factors(gen, ranks)
    stats = b, f3, c, ok = sweep_stats(x, y)
    bins = _empty_bins(config.bins)
    _bin_side(bins, c, ok, b, f3)
    return bins, _violations_in_chunk(config, start, x, y, stats)


def _assert_chunk_bitwise_equal(config, chunk_index):
    bins, violations, seconds = _run_chunk(config, chunk_index)
    ref_bins, reference = _whole_chunk_reference(config, chunk_index)
    assert list(seconds) == list(STAGES)
    for field in dataclasses.fields(bins):
        got, want = getattr(bins, field.name), getattr(ref_bins, field.name)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    assert len(violations) == len(reference)
    for v, w in zip(violations, reference):
        assert (v.index, v.reasons, v.state.tobytes()) == (w.index, w.reasons, w.state.tobytes())
        assert np.array([v.b, v.f3, v.c_a, v.c_b]).tobytes() == np.array([w.b, w.f3, w.c_a, w.c_b]).tobytes()
    return violations


class TestTiledChunk:
    def test_violations_across_tiles_match_whole_chunk(self):
        # one chunk of 4 full tiles and a partial fifth, with violations in several tiles
        config = SweepConfig(n=20_000, seed=21, thresholds=Thresholds(c_chsh=0.01, c_f3=0.02))
        assert config.n < config.chunk_size and config.n % _TILE != 0
        violations = _assert_chunk_bitwise_equal(config, 0)
        assert len({v.index // _TILE for v in violations}) >= 2

    @pytest.mark.parametrize("bins", [1, 5000])
    def test_tiles_fold_into_any_bin_count(self, bins):
        # the test above runs the default 200 bins; at 5,000 a tile leaves most bins empty,
        # and the bins each tile fills differ
        _assert_chunk_bitwise_equal(SweepConfig(n=20_000, seed=21, bins=bins), 0)

    def test_partial_chunk_with_rank_one_matches_whole_chunk(self):
        config = SweepConfig(n=100_000, seed=2, rank_mix=(1, 1, 1, 1))
        assert config.chunk_size < config.n < 2 * config.chunk_size
        for chunk_index in (0, 1):
            _assert_chunk_bitwise_equal(config, chunk_index)

    def test_folded_pieces_keep_degenerate_samples_out(self):
        # random states never have a pure marginal, so the chunk tests above bin no degenerate
        # sample; here three per party are folded in one at a time, after two uneven pieces, and
        # the last two pieces each hold a sample that is degenerate for one party only
        g = ginibre_and_pure_marginal_factors(SeededRng(7, 0).generator())
        b, f3, c, ok = sweep_stats(g.real, g.imag)
        bins = _empty_bins(50)
        for piece in np.split(np.arange(len(b)), [3, 1000, 2001, 2002, 2003]):
            _bin_side(bins, c[:, piece], ok[:, piece], b[piece], f3[piece])
        assert bins.degenerate.tolist() == np.count_nonzero(~ok, axis=1).tolist() == [3, 3]
        for row, (c_w, ok_w) in enumerate(zip(c, ok)):
            idx = np.minimum((c_w[ok_w] * 50).astype(np.int64), 49)
            assert bins.count[row].tolist() == [np.count_nonzero(idx == k) for k in range(50)]
            for k in range(50):
                assert bins.max_b[row, k] == b[ok_w][idx == k].max(initial=-np.inf)
                assert bins.max_f3[row, k] == f3[ok_w][idx == k].max(initial=-np.inf)

    def test_one_state_last_tile(self):
        config = SweepConfig(n=_TILE + 1, seed=4, rank_mix=(1, 1, 1, 1), thresholds=Thresholds(0.01, 0.02))
        assert _assert_chunk_bitwise_equal(config, 0)

    def test_in_place_ginibre_matches_masked_sum(self):
        ranks = SeededRng(5, 0).generator().integers(1, 5, size=1000)
        # the parts are drawn in place, real parts first, and masked: the same numbers as two
        # whole-batch draws, with every column from the rank on zeroed
        x, y = ginibre_factors(SeededRng(6, 0).generator(), ranks)
        gen = SeededRng(6, 0).generator()
        keep = np.arange(4)[None, None, :] < ranks[:, None, None]
        for part in (x, y):
            assert part.shape == (1000, 4, 4) and part.flags["C_CONTIGUOUS"]
            assert part.tobytes() == (gen.standard_normal((1000, 4, 4)) * keep).tobytes()

    def test_streamed_tiles_are_the_whole_draw(self):
        # the real parts are drawn whole and each tile's imaginary parts when it is asked for,
        # into one reused buffer: tile by tile, the bits of one whole-batch draw, uneven last
        # tile included; a batch of none is one empty tile
        ranks = SeededRng(5, 0).generator().integers(1, 5, size=10_000)
        x, y = ginibre_factors(SeededRng(6, 0).generator(), ranks)
        lo = 0
        for x_t, y_t in ginibre_tiles(SeededRng(6, 0).generator(), ranks, 4096):
            hi = lo + len(x_t)
            assert (x_t.tobytes(), y_t.tobytes()) == (x[lo:hi].tobytes(), y[lo:hi].tobytes())
            lo = hi
        assert lo == 10_000
        empty = ginibre_factors(SeededRng(6, 0).generator(), ranks[:0])
        assert [part.shape for part in empty] == [(0, 4, 4), (0, 4, 4)]

    def test_one_chunk_peak_memory(self):
        # 59 MB before tiling (G built from two complex temporaries, whole-chunk
        # rho, Pauli product and R); 25.7 MB with 4,096-state tiles; 22.4 MB with
        # the factor parts drawn in place (no 8.4 MB draw temporary) and each
        # tile's R built from them (no complex rho); 20.05 MB with each tile binned
        # on its own (no whole-chunk statistic arrays); 13.27 MB with the imaginary
        # parts drawn and both parts masked a tile at a time (no 8.4 MB chunk-sized
        # y, no 1 MB chunk-sized mask). The bound is that measurement plus 0.93 MB
        # (7 %), below the 20.05 MB of a whole-chunk y.
        run_sweep(SweepConfig(n=1000, seed=1))  # first-call allocations stay outside the measurement
        tracemalloc.start()
        try:
            run_sweep(SweepConfig(n=65536, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14.2e6

    def test_one_tile_peak_memory(self):
        # one full tile's sweep_stats peaks at 3.15 MB with 8,192 states, in the Pauli map's
        # stage. It peaked at 3.24 MB in B/F3's deflation while R was held; R is now dropped
        # after the centres and T T^T, and the deflation reaches 2.34 MB. Before that, the
        # transposed factor parts, the (2, 4, 4, n) product buffer, the [c; -c] stack and B/F3's
        # nine-entry temporaries made it 5.39 MB at 8,192 states (2.69 MB at 4,096). The bound
        # is the measurement plus 0.20 MB (6 %).
        x, y = ginibre_factors(SeededRng(1, 0).generator(), np.full(_TILE, 4))
        sweep_stats(x[:8], y[:8])  # first-call allocations stay outside the measurement
        tracemalloc.start()
        try:
            sweep_stats(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.35e6

    def test_stage_seconds_are_summed_and_not_data(self):
        summary = run_sweep(SweepConfig(n=10_000, seed=4, chunk_size=4000))
        assert list(summary.stage_seconds) == list(STAGES)
        assert all(s >= 0.0 for s in summary.stage_seconds.values())
        assert 0.0 < sum(summary.stage_seconds.values()) <= summary.runtime_seconds  # one worker: stages in sequence
        assert summary == run_sweep(SweepConfig(n=10_000, seed=4, chunk_size=4000))
        assert summary.metadata["chunk_size"] == 4000 and summary.metadata["tile_size"] == _TILE


def _bins_digest(bins, k) -> str:
    """The digest of party k's row of ``bins``."""
    h = hashlib.sha256()
    for part in (bins.max_b[k], bins.max_f3[k], bins.count[k], np.int64(bins.degenerate[k])):
        h.update(np.asarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.usefixtures("recorded_platform")
class TestOutputBitPins:
    """SHA-256 digests of both parties' bins (max_B, max_F3, count, degenerate) and of the
    violation dumps, recorded with 4,096-state tiles and B/F3 on the Gram matrix's nine
    entries: a rewrite of the sweep's kernels keeps every output bit.

    The digests hold on a platform whose arccos, cos and normal stream give the recorded
    bits (x86-64 with AVX-512, numpy 2.4.6); elsewhere the tests skip, since their bits are
    the platform's, not the program's.
    """

    @pytest.mark.parametrize(
        "config, digest_b, digest_a",
        [
            (
                SweepConfig(n=131072, seed=1),
                "6b3948153babeaf75ebf180912cd7668a45a53246ac351ff06bfd2147ca80569",
                "ced86b33de2b2d4b5ba4b80dfbb3738e6df62468d9087553ca764ffb240dc6c1",
            ),
            (  # CI's config: a partial second chunk, a partial last tile and rank-1 samples
                SweepConfig(n=100_000, seed=2, rank_mix=(1, 1, 1, 1)),
                "54d1342aba1e19fd3540bfbcf5b475f0d55b8c302c4f3521b9ef29d5c8456876",
                "19565ed7a28b560b09f6fe2d0c02c5732b1ced4482eb7cdce951acde763ad752",
            ),
        ],
        ids=["default", "ci_rank_mix"],
    )
    def test_bins(self, config, digest_b, digest_a):
        summary = run_sweep(config)
        assert (_bins_digest(summary.bins, 1), _bins_digest(summary.bins, 0)) == (digest_b, digest_a)

    def test_violation_dumps(self, tmp_path):
        # shrunken thresholds make 437 ordinary samples "counterexamples", in every tile
        config = SweepConfig(n=20_000, seed=21, rank_mix=(1, 1, 1, 1), thresholds=Thresholds(c_chsh=0.4, c_f3=0.5))
        summary = run_sweep(config)
        assert len(summary.violations) == 437
        dumps = hashlib.sha256()
        for v in summary.violations:
            with open(serde.dump_violation_json(v, str(tmp_path)), "rb") as fh:
                dumps.update(fh.read())
        assert dumps.hexdigest() == "25cce40b1ea417c3837e93918a67d45ffe3c64988671d00912cc3e40994e3820"
        assert (_bins_digest(summary.bins, 1), _bins_digest(summary.bins, 0)) == (
            "2b35eb297e66e5b70dc69df95f2bd14cd0e4edb1cc40e7ddf1ec9ee4e2f69a80",
            "e4b9a764082ed22d4802ff71b51f44350619e5a29a10205a9dd5a3b46fe8dacb",
        )
