"""Random-state sweeps testing the centre-bound conjecture at desk scale.

A sweep samples Ginibre random states (mixed ranks), computes per state
the CHSH/F3 maxima and both ellipsoid centre magnitudes (classify's, from
:func:`hqc.ellipsoid.centre_magnitudes`) with :func:`sweep_stats`, bins
running maxima against each party's centre magnitude, and records any
sample that violates the conjectured bounds. A violation would falsify the
conjecture, so it is first-class data: the full state is serialised rather
than discarded.

The chunk is the unit of random streams and of merging: sampling is
partitioned into fixed-size chunks, one deterministic RNG stream per chunk,
and merging uses only associative max/sum reductions, so results are
independent of worker count and scheduling. The tile is the unit of
compute, and of the draws that need not be whole: a chunk draws its
factors' real parts at once, as its stream orders them, and each tile of
``_TILE`` states then draws its imaginary parts into one reused tile-sized
buffer, masks both parts by rank, and is computed, binned and scanned
before the next (:func:`hqc.states.ginibre_tiles`). A worker so holds one
chunk-sized array, not three, and frees no chunk-sized memory between
tiles. Every numpy call on a tile costs a fixed dispatch, so a larger tile
means fewer calls per state; the tile's temporaries are kept to a few MB.
Each row's bits do not depend on the rest of its tile, each tile consumes
the stream the whole chunk would, and each tile is folded into its chunk's
bins with the same max/sum reductions, so tiling changes no output.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .correlations import gram_entries, gram_maxima
from .criteria import Thresholds, conjecture_bound_chsh
from .ellipsoid import Party, centre_magnitudes
from .errors import DomainError
from .states import SeededRng, ginibre_tiles, pictures_from_factors, states_from_factors

VIOLATION_TOL = 1e-9  # margin a sample must exceed a bound by to count as a violation

DEFAULT_RANK_MIX = (0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

STAGES = ("draw", "stats", "bin", "violation_scan")  # the timed stages of a chunk, in order

_TILE = 8192  # states per compute tile; one tile's sweep_stats peaks at 3.15 MB (tracemalloc)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep; results are a pure function of this value.

    ``rank_mix`` gives sampling weights for Ginibre ranks 1..4. Rank 1
    (pure states) is excluded by default because pure-state marginals are
    frequently near-pure, flooding the degenerate-ellipsoid path; pass a
    nonzero weight to re-enable it.
    """

    n: int
    seed: int = 0
    rank_mix: tuple[float, float, float, float] = DEFAULT_RANK_MIX
    bins: int = 200
    workers: int = 1
    chunk_size: int = 65536
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"n must be >= 0, got {self.n}")
        if self.bins < 1:
            raise DomainError(f"bins must be >= 1, got {self.bins}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size < 1:
            raise DomainError(f"chunk_size must be >= 1, got {self.chunk_size}")
        SeededRng(self.seed)  # rejects a negative seed, even when no chunk draws from it
        mix = np.asarray(self.rank_mix, dtype=float)
        # finite weights may still sum to inf; Python's sum overflows silently where numpy's warns
        if mix.shape != (4,) or not np.isfinite(mix).all() or mix.min() < 0 or not 0 < sum(mix.tolist()) < np.inf:
            raise DomainError(f"rank_mix must be 4 finite weights >= 0 with positive finite sum, got {self.rank_mix}")


def _fields_equal(self, other: object) -> bool:
    """Equality of two records of one dataclass that holds numpy arrays, field by field with
    ``np.array_equal``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True)
class Violation:
    """A sample exceeding a conjectured bound (a would-be counterexample)."""

    index: int
    b: float
    f3: float
    c_a: float
    c_b: float
    reasons: tuple[str, ...]
    state: np.ndarray

    __eq__ = _fields_equal


@dataclass
class Bins:
    """Running per-bin maxima of B and F3 and per-bin counts against each party's centre
    magnitude, in party order (A, B): ``max_b``, ``max_f3`` and ``count`` are (2, bins)
    arrays, and ``degenerate`` is the (2,) count of samples left unbinned because that
    party's ellipsoid is degenerate."""

    max_b: np.ndarray
    max_f3: np.ndarray
    count: np.ndarray
    degenerate: np.ndarray

    __eq__ = _fields_equal


@dataclass(frozen=True)
class SweepSummary:
    """Merged sweep result. Equality ignores the runtime and the per-stage
    wall seconds (summed over chunks, keyed by :data:`STAGES`), which are not data."""

    config: SweepConfig
    bins: Bins
    violations: tuple[Violation, ...]
    metadata: dict
    runtime_seconds: float = field(compare=False, default=0.0)
    stage_seconds: dict = field(compare=False, default_factory=dict)


def sweep_stats(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Correlation statistics for a batch of Ginibre factors G = x + i y.

    ``x`` and ``y`` are the (n, 4, 4) real and imaginary parts; state i is
    ``G[i] G[i]^dag`` normalised to unit trace, whose picture comes straight
    from the parts (:func:`hqc.states.pictures_from_factors`), with no complex
    G or rho. Returns ``(b, f3, c, ok)``, with :func:`hqc.ellipsoid.centre_magnitudes`'
    (2, n) magnitudes and masks in party order (A, B); ``ok`` marks samples whose steering
    party has a non-pure marginal, the only ones binned and scanned. The B/F3 and centre
    formulas are the batched ones of the scalar API: the centres are taken first, then
    T T^T, and R is dropped before B/F3's eigenvalue stage. A sweep calls it once per tile
    and bins and scans that tile's statistics before the next.
    """
    r = pictures_from_factors(x, y)
    c, ok = centre_magnitudes(r)
    m = gram_entries(r[:, 1:, 1:])
    del r  # B/F3 read only M from here on: R is not held through the deflation, a tile's peak memory
    return (*gram_maxima(m), c, ok)


def _empty_bins(bins: int) -> Bins:
    shape = (len(Party), bins)
    return Bins(
        np.full(shape, -np.inf), np.full(shape, -np.inf), np.zeros(shape, np.int64), np.zeros(len(Party), np.int64)
    )


def _bin_side(bins: Bins, c: np.ndarray, ok: np.ndarray, b: np.ndarray, f3: np.ndarray) -> None:
    """Fold a batch's samples into ``bins`` in place: party k's row is binned by its centre
    magnitudes ``c[k]``, and its samples with a degenerate ellipsoid (``~ok[k]``) are counted
    in ``degenerate``, not binned."""
    n_bins = bins.count.shape[1]
    for k, (c_k, ok_k) in enumerate(zip(c, ok)):
        b_k, f3_k = b, f3
        degenerate = len(ok_k) - int(np.count_nonzero(ok_k))
        if degenerate:
            c_k, b_k, f3_k = c_k[ok_k], b[ok_k], f3[ok_k]
        idx = np.minimum(c_k * n_bins, n_bins - 1).astype(np.int64)  # c is a norm, so never below 0
        np.maximum.at(bins.max_b[k], idx, b_k)
        np.maximum.at(bins.max_f3[k], idx, f3_k)
        bins.count[k] += np.bincount(idx, minlength=n_bins)
        bins.degenerate[k] += degenerate


def _merge(x: Bins, y: Bins) -> Bins:
    return Bins(
        np.maximum(x.max_b, y.max_b), np.maximum(x.max_f3, y.max_f3), x.count + y.count, x.degenerate + y.degenerate
    )


def _violations_in_chunk(
    config: SweepConfig, start: int, x: np.ndarray, y: np.ndarray, stats: tuple
) -> list[Violation]:
    """The samples of ``x + i y``, the first at index ``start``, whose :func:`sweep_stats` violate a bound."""
    b, f3, c, ok = stats
    tol = VIOLATION_TOL
    th = config.thresholds
    checks = {}
    for party, c_w, ok_w in zip(Party, c, ok):
        bound = conjecture_bound_chsh(np.where(ok_w, c_w, 0.0))  # a point's |c| may round above 1
        checks[f"chsh_bound_c{party.value}"] = ok_w & (b > bound + tol)
        checks[f"chsh_above_threshold_c{party.value}"] = ok_w & (b > 1.0 + tol) & (c_w > th.c_chsh)
        checks[f"f3_above_threshold_c{party.value}"] = ok_w & (f3 > 1.0 + tol) & (c_w > th.c_f3)
    bad = np.nonzero(np.logical_or.reduce(list(checks.values())))[0]
    out = []
    for local, rho in zip(bad, states_from_factors(x[bad] + 1j * y[bad])):
        out.append(
            Violation(
                index=start + int(local),
                b=float(b[local]),
                f3=float(f3[local]),
                c_a=float(c[0, local]),
                c_b=float(c[1, local]),
                reasons=tuple(sorted(name for name, mask in checks.items() if mask[local])),
                state=rho,
            )
        )
    return out


@contextmanager
def _timed(seconds: dict, stage: str):
    started = time.perf_counter()
    yield
    seconds[stage] += time.perf_counter() - started


def _run_chunk(config: SweepConfig, chunk_index: int) -> tuple[Bins, list[Violation], dict]:
    """Draw one chunk tile by tile, and compute, bin and scan each tile before the next
    is drawn. Returns its bins, its violations and its wall seconds per stage; ``draw``
    sums the chunk's real parts and every tile's imaginary parts."""
    start = chunk_index * config.chunk_size
    count = min(config.chunk_size, config.n - start)
    seconds = dict.fromkeys(STAGES, 0.0)
    with _timed(seconds, "draw"):
        gen = SeededRng(config.seed, chunk_index).generator()
        mix = np.asarray(config.rank_mix, dtype=float)
        tiles = ginibre_tiles(gen, gen.choice(np.arange(1, 5), size=count, p=mix / mix.sum()), _TILE)
    bins = _empty_bins(config.bins)
    violations = []
    for lo in range(0, count, _TILE):
        with _timed(seconds, "draw"):
            x, y = next(tiles)  # the first tile draws the chunk's real parts; each draws its own y
        with _timed(seconds, "stats"):
            stats = sweep_stats(x, y)
        b, f3, c, ok = stats
        with _timed(seconds, "bin"):
            _bin_side(bins, c, ok, b, f3)
        with _timed(seconds, "violation_scan"):
            violations += _violations_in_chunk(config, start + lo, x, y, stats)
        del stats, b, f3, c, ok  # not held while the next tile is computed
    return bins, violations, seconds


def run_sweep(config: SweepConfig) -> SweepSummary:
    """Execute the sweep described by ``config``.

    Deterministic for a fixed config regardless of worker count; any
    conjecture violations are collected (sorted by sample index), not
    raised.
    """
    started = time.perf_counter()
    n_chunks = (config.n + config.chunk_size - 1) // config.chunk_size
    bins = _empty_bins(config.bins)
    violations: list[Violation] = []
    stage_seconds = dict.fromkeys(STAGES, 0.0)
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        for chunk_bins, viol, seconds in pool.map(lambda c: _run_chunk(config, c), range(n_chunks)):
            bins = _merge(bins, chunk_bins)
            violations.extend(viol)
            for stage in STAGES:
                stage_seconds[stage] += seconds[stage]
    violations.sort(key=lambda v: v.index)
    metadata = {
        "ensemble": "ginibre",
        "rank_mix": {str(rank): float(w) for rank, w in zip(range(1, 5), config.rank_mix)},
        "note": "sampling measure is the Ginibre rank mix above; rank 4 is the Hilbert-Schmidt measure",
        "chunks": n_chunks,
        "chunk_size": config.chunk_size,
        "tile_size": _TILE,
    }
    return SweepSummary(
        config=config,
        bins=bins,
        violations=tuple(violations),
        metadata=metadata,
        runtime_seconds=time.perf_counter() - started,
        stage_seconds=stage_seconds,
    )

