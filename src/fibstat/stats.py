"""Aggregate statistics for obstruction counts over families.

Builds record sets (exhaustive scans over all points of bounded height, or
seeded uniform samples), then reduces them: standardized moments against the
normal reference, truncated centered counts, the exact histogram of
obstruction counts with its rational partition identity, partial sums of the
local densities with a constant-term fit, Kolmogorov-Smirnov distance to the
normal law, and the Euler-product prediction of the limiting histogram for
families whose growth constant vanishes.

A classic cross-check is included: the number of distinct prime factors of
the integers up to a bound, pushed through the same reductions.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .arith import SizeRefused, check_fits_in_memory, prime_support, primes_up_to
from .families import (
    DiskDensityEstimate,
    FamilyDescriptor,
    ObstructionRecord,
    SigmaTable,
    diagonal_cubics,
    disk_modulus,
    omega_pi,
    sigma_empirical,
    theta_grid,
)
from .localsolve import INF, Place
from .projective import clear_imprimitive, count_points, enumerate_points, lead_primes

__all__ = [
    "RecordSet",
    "ScanSummary",
    "ScanTally",
    "MomentReport",
    "TauHistogram",
    "TruncationWindow",
    "SigmaFit",
    "TauPrediction",
    "scan",
    "record_set",
    "scan_tally",
    "sample_records",
    "moments",
    "moment_series",
    "truncated_omega",
    "truncated_moments",
    "moment_window",
    "tau_histogram",
    "n_moments",
    "build_sigma_table",
    "sigma_entries",
    "sigma_partial_sums",
    "standardized_values",
    "gaussian_distance",
    "ks_distance",
    "tau_limit_prediction",
    "cubic_density_table",
    "classic_omega_set",
    "CLASSIC_OMEGA",
    "CENTERINGS",
]


@dataclass(frozen=True)
class _SigmaFamily:
    """The part of a FamilyDescriptor that empirical centering reads."""

    name: str
    A: int
    sigma_p: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


# the family of the classic cross-check: divisibility by p stands in for
# insolubility, so sigma_p = 1/p at every prime
CLASSIC_OMEGA = _SigmaFamily("classic_omega", 1, lambda ps: (np.ones_like(ps), ps))


# ---------------------------------------------------------------------------
# record containers


@dataclass(frozen=True)
class ScanSummary:
    point_count: int
    singular_count: int
    tainted_count: int


@dataclass
class RecordSet:
    """Columnar obstruction counts for one run.

    One row per smooth-fibre point (tainted rows carry the decided part of
    the count only).  singular_count completes the partition: every
    enumerated or sampled point is a row, a singular fibre, or nothing.
    family is the FamilyDescriptor that produced the rows (CLASSIC_OMEGA
    for the classic cross-check); empirical centering reads its sigma_p.
    omegas may be any non-negative integer dtype: int8 for the classic
    set, int64 for scans and samples.
    """

    family: FamilyDescriptor
    B: int
    S: tuple[Place, ...]
    omegas: np.ndarray
    heights: np.ndarray
    tainted: np.ndarray
    singular_count: int

    def __post_init__(self):
        if not (len(self.omegas) == len(self.heights) == len(self.tainted)):
            raise ValueError("column lengths differ")

    @property
    def point_count(self) -> int:
        return len(self.omegas) + self.singular_count

    @property
    def untainted_count(self) -> int:
        return int((~self.tainted).sum())

    @property
    def tainted_count(self) -> int:
        return int(self.tainted.sum())

    def summary(self) -> ScanSummary:
        return ScanSummary(self.point_count, self.singular_count, self.tainted_count)

    def truncate_height(self, limit: int) -> "RecordSet":
        """Rows with height <= limit, as a set with bound `limit`.

        Only meaningful for exhaustive sets; the singular count is not
        re-derivable here, so it is kept only when nothing was dropped.
        A limit above B raises ValueError: the set holds no rows past B.
        """
        if limit > self.B:
            raise ValueError(f"cannot truncate a set at B = {self.B} to the larger {limit}")
        keep = self.heights <= limit
        singular = self.singular_count if bool(keep.all()) else 0
        return RecordSet(
            self.family,
            limit,
            self.S,
            self.omegas[keep],
            self.heights[keep],
            self.tainted[keep],
            singular,
        )

    @staticmethod
    def from_records(
        records: Iterable[ObstructionRecord],
        family: FamilyDescriptor,
        B: int,
        S,
        singular_count: int = 0,
    ) -> "RecordSet":
        """Columns of a scan() record list, for the columnar reductions."""
        recs = list(records)
        return RecordSet(
            family,
            B,
            tuple(S),
            np.array([r.omega for r in recs], np.int64),
            np.array([r.point.height for r in recs], np.int64),
            np.array([r.tainted for r in recs], bool),
            singular_count,
        )


def _usable(rs: RecordSet) -> tuple[np.ndarray, np.ndarray]:
    """omega and height of the untainted rows of height >= 3.

    When every row is usable these are the set's own columns, not copies.
    """
    keep = ~np.asarray(rs.tainted, bool) & (np.asarray(rs.heights) >= 3)
    if keep.all():
        return np.asarray(rs.omegas), np.asarray(rs.heights)
    return np.asarray(rs.omegas)[keep], np.asarray(rs.heights)[keep]


# ---------------------------------------------------------------------------
# scanning


def scan(family: FamilyDescriptor, B: int, S=(INF,)):
    """Every smooth fibre of height <= B, one ObstructionRecord each.

    Returns (records, ScanSummary).  Singular fibres are counted, not
    recorded; an undecided place taints its record rather than aborting.
    Deterministic given (family, B, S).  Meant for small B; record_set
    holds the vectorized large-B path.  The columnar reductions take the
    records through RecordSet.from_records.
    """
    if B < 3:
        raise ValueError("need B >= 3")
    S = tuple(S)
    records = []
    points = singular = 0
    for pt in enumerate_points(family.n, B):
        points += 1
        if not family.smooth(pt.coords):
            singular += 1
            continue
        records.append(omega_pi(family, pt, S))
    tainted = sum(1 for r in records if r.tainted)
    return records, ScanSummary(points, singular, tainted)


class _PlaceGrids:
    """omega, taint and the rows of a scan at B, lead by lead, over the tail grid.

    Position t of the tail grid [-B, B]^n (index k on an axis holds k - B)
    stands for the row (a, t) of a lead a: the smooth fibres with no
    leading zero, which come first in point_slabs order; every later point
    has a zero coordinate, so every point not a row is singular.  Each
    prime p <= max(A, B) and the real place, outside S, read
    family.digit_model, with digits computed once over [-B, B] (0, which
    no row holds, reads as 1) and over the leads 1..B, and model.code packs
    them into a position's code, broadcast.  The real place, a prime p <= A,
    or p | a, is decided on the whole grid.  Otherwise p can only obstruct
    on the hyperplanes p | t_i, each the strided slice B % p :: p of axis i,
    and counts at the first axis whose entry it divides.  The verdicts
    depend on a only through its key, 2 * digit + 1 when decided on the
    whole grid and 2 * digit otherwise; every lead is positive, so the real
    place has one key.  The constructor warms, on the calling thread, the
    masks of every key the leads 1..B ask for (the bundled models' verdicts
    are fixed tables, so nothing is searched), and lead only reads what was
    kept, so threads may share one instance.

    reserve is what the caller holds besides the kept verdict masks; both
    are checked against physical memory (SizeRefused) before each key is
    decided, so a scan too large to walk is refused before its first grid.
    """

    def __init__(self, family: FamilyDescriptor, B: int, S: tuple, reserve: int):
        if B < 3:
            raise ValueError("need B >= 3")
        what = f"a scan at B={B}"
        check_fits_in_memory(reserve, what)
        n = family.n
        self.B, self.shape = B, (2 * B + 1,) * n
        side = np.arange(-B, B + 1)
        side[B] = 1
        leads = np.arange(1, B + 1)
        self.places = []
        for p in [*primes_up_to(max(family.A, B)).tolist(), INF]:
            if p not in S:
                model = family.digit_model(p)
                digits = model.digits(side, p)
                axes = [digits.reshape((-1,) + (1,) * (n - 1 - i)) for i in range(n)]
                whole = leads % p == 0 if family.A < p < INF else np.ones(B, bool)
                keys = 2 * model.digits(leads, p) + whole
                self.places.append((p, model, axes, keys, {}))
        self.warm(reserve, what)
        self.primes_of = lead_primes(B)
        self.nonzero = functools.reduce(np.logical_and, [ax != 0 for ax in _tail_axes(n, B)])

    def _parts(self, p, model, axes, digit, whole):
        # (grid index, insoluble mask, undecided mask) per decided region,
        # a mask None when empty
        cut = slice(self.B % p, None, p)
        regions = [(Ellipsis, axes)] if whole else [
            ((slice(None),) * i + (cut,), [t[cut] if j == i else t for j, t in enumerate(axes)])
            for i in range(len(axes))
        ]
        parts = []
        for i, (at, region) in enumerate(regions):
            verdicts = model.verdicts(model.code([digit, *region]))
            masks = []
            for value in (1, 2):
                hit = verdicts == value
                for j in range(0 if whole else i):
                    hit[(slice(None),) * j + (cut,)] = False
                masks.append(hit if hit.any() else None)
            parts.append((at, *masks))
        return parts

    def warm(self, reserve: int, what: str):
        """Decide every key the leads 1..B ask for, checking memory before each."""
        held = 0
        for p, model, axes, keys, kept in self.places:
            for key in sorted(set(keys.tolist())):
                check_fits_in_memory(held + reserve, what)
                kept[key] = self._parts(p, model, axes, *divmod(key, 2))
                held += sum(m.nbytes for part in kept[key] for m in part[1:] if m is not None)
        check_fits_in_memory(held + reserve, what)

    def lead(self, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(omega as uint8, taint, keep) grids of lead a; keep marks its rows."""
        omega = np.zeros(self.shape, np.uint8)
        taint = np.zeros(self.shape, bool)
        for p, model, axes, keys, kept in self.places:
            for at, insoluble, undecided in kept[int(keys[a - 1])]:
                if insoluble is not None:
                    omega[at] += insoluble
                if undecided is not None:
                    taint[at] |= undecided
        return omega, taint, clear_imprimitive(self.nonzero.copy(), self.B, self.primes_of[a - 1])


def _tail_axes(n: int, B: int) -> list[np.ndarray]:
    """The n axes of the tail grid [-B, B]^n, open for broadcasting (np.ix_)."""
    return list(np.ix_(*[np.arange(-B, B + 1, dtype=np.min_scalar_type(-B - 1))] * n))


def record_set(family: FamilyDescriptor, B: int, S=(INF,)) -> RecordSet:
    """Exhaustive scan of all points of height <= B, columnar.

    The row-level oracle path: it holds each row's omega, height and taint,
    which the row-level tests and reductions read; fibstat tau scans into
    scan_tally instead, which holds per-j counts only.  Both take the leads
    a = 1..B through _PlaceGrids.lead, which decides the places outside S
    (the real place, and the primes: only those <= B can divide a
    coordinate) on the grid through their digit_model.  The columns are
    allocated once for all count_points(n, B) points, filled lead by lead
    and returned as views of the rows filled, so no column is held twice;
    columns above physical memory raise SizeRefused before anything is
    allocated.
    """
    S = tuple(S)
    n = family.n
    size = count_points(n, B)
    columns = (np.int64, np.int64, bool)  # omegas, heights, tainted
    places = _PlaceGrids(family, B, S, size * sum(np.dtype(t).itemsize for t in columns))
    omegas, heights, tainted = (np.empty(size, t) for t in columns)
    tail_height = functools.reduce(np.maximum, map(np.abs, _tail_axes(n, B))).ravel()
    filled = 0
    for lead in range(1, B + 1):
        omega, taint, keep = places.lead(lead)
        idx = np.flatnonzero(keep)
        end = filled + len(idx)
        omegas[filled:end] = omega.ravel()[idx]
        tainted[filled:end] = taint.ravel()[idx]
        heights[filled:end] = np.maximum(tail_height[idx], lead)
        filled = end
    return RecordSet(
        family, B, S, omegas[:filled], heights[:filled], tainted[:filled], size - filled
    )


@dataclass(frozen=True)
class ScanTally:
    """The per-j counts of one exhaustive scan, with no row kept.

    counts[j] is the number of untainted smooth-fibre points with omega = j
    (no trailing zero); every point counts there, as tainted or as
    singular, so the four fields partition point_count.
    """

    B: int
    counts: tuple[int, ...]
    tainted_count: int
    singular_count: int
    point_count: int

    def __post_init__(self):
        if sum(self.counts) + self.tainted_count + self.singular_count != self.point_count:
            raise ValueError("partition identity violated")

    @property
    def untainted_count(self) -> int:
        return sum(self.counts)


# bytes per tail-grid cell charged for each walking thread.  Under
# tracemalloc a lead's walk held about 5 (its keep mask, omega and taint
# grids and two bool temporaries) and warm's decision of one key up to 11
# (the code grid, the intp copy an index gather makes of it, the verdicts
# and a mask), which one thread's share covers.
_WALK_BYTES = 12


def _tally_leads(places: _PlaceGrids, leads: range) -> tuple[np.ndarray, int, int]:
    """(counts per j, tainted, rows) over the given leads."""
    counts = np.zeros(len(places.places) + 1, np.int64)  # omega <= the number of places
    tainted = rows = 0
    for lead in leads:
        omega, taint, keep = places.lead(lead)
        rows += int(np.count_nonzero(keep))
        taint &= keep
        tainted += int(np.count_nonzero(taint))
        keep ^= taint  # taint is inside keep: keep & ~taint
        # a pass per j allocates bool grids only, where bincount would copy
        # the gathered omegas to intp
        for j in range(int(omega.max()) + 1):
            counts[j] += np.count_nonzero((omega == j) & keep)
    return counts, tainted, rows


def scan_tally(family: FamilyDescriptor, B: int, S=(INF,), threads: int = 1) -> ScanTally:
    """Exhaustive scan of all points of height <= B, tallied per omega.

    The same leads and places as record_set, but each lead's rows are
    counted at once (the untainted ones per omega, the tainted ones in
    all), so no per-point column is allocated.  The leads are split over
    workers = min(threads, B) pool tasks, task w taking the leads
    w + 1, w + 1 + workers, ... and summing its own counts; integer sums
    do not depend on order, so the tally is identical for any thread
    count.  Every verdict mask is built by _PlaceGrids on the calling
    thread before the tasks start, and the tasks only read them.  A scan
    whose per-thread grids and kept verdict masks exceed physical memory
    raises SizeRefused before its first grid.
    """
    if threads < 1:
        raise ValueError("need threads >= 1")
    n = family.n
    workers = min(threads, B)
    # the shared nonzero mask, and each thread's grids
    places = _PlaceGrids(family, B, tuple(S), (1 + workers * _WALK_BYTES) * (2 * B + 1) ** n)
    strides = [range(w + 1, B + 1, workers) for w in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(functools.partial(_tally_leads, places), strides))
    counts = sum(p[0] for p in parts).tolist()
    while counts and not counts[-1]:
        counts.pop()
    tainted, rows = sum(p[1] for p in parts), sum(p[2] for p in parts)
    size = count_points(n, B)
    return ScanTally(B, tuple(counts), tainted, size - rows, size)


def _sample_chunk(family, B, want, seed_seq):
    """One chunk of uniform smooth rows of height <= B, with its singular tally.

    Uniform over primitive integer vectors in the box, which is uniform
    over points (each point has two primitive representatives).  Draws are
    consumed in order and stop at the one yielding the want-th smooth row,
    so the singular tally is an unbiased companion count.
    """
    rng = np.random.default_rng(seed_seq)
    kept = []
    singular = 0
    got = 0
    while got < want:
        raw = rng.integers(-B, B + 1, size=(2 * want + 64, family.n + 1))
        cand = raw[np.gcd.reduce(np.abs(raw), axis=1) == 1]
        smooth = (cand != 0).all(axis=1)
        hits = np.flatnonzero(smooth)
        need = want - got
        if len(hits) >= need:
            cut = hits[need - 1] + 1
            singular += int((~smooth[:cut]).sum())
            kept.append(cand[:cut][smooth[:cut]])
            got = want
        else:
            singular += int((~smooth).sum())
            kept.append(cand[smooth])
            got += len(hits)
    return np.concatenate(kept), singular


# a decision block's temporaries are several int64 arrays a few times its
# size; capping its rows keeps peak memory flat in the sample size
_BLOCK_ROWS = 4096

# the sampler splits its seed into this many streams; it fixes which rows a
# seed draws
_STREAMS = 64


# one scatter per place: insoluble verdicts count in the low 32 bits of a
# row's tally, undecided ones in the bits above
_TALLY = np.array([0, 1, 1 << 32], np.int64)
_INSOLUBLE_MASK = (1 << 32) - 1


def _sample_block(family, rows, S):
    """omega and taint of a block of sampled rows.

    The primes <= A and the real place, unless in S, are tested on every
    row through their digit_model.  The primes > A dividing some coordinate
    come from one prime_support lookup, deduplicated per row, with the
    primes in S dropped; they are decided by one theta_grid call, one prime
    per row.
    """
    index, prime = prime_support(rows)
    row = index // rows.shape[1]
    # a prime dividing two coordinates of a row is one place
    order = np.lexsort((prime, row))
    row, prime = row[order], prime[order]
    first = np.ones(len(row), bool)
    first[1:] = (row[1:] != row[:-1]) | (prime[1:] != prime[:-1])
    keep = first & (prime > family.A) & ~np.isin(prime, [v for v in S if v != INF])
    tally = np.zeros(len(rows), np.int64)
    for v in [*primes_up_to(family.A).tolist(), INF]:
        if v not in S:
            tally += _TALLY[theta_grid(family, rows, v)]
    row = row[keep]
    np.add.at(tally, row, _TALLY[theta_grid(family, rows[row], prime[keep])])
    return tally & _INSOLUBLE_MASK, tally > _INSOLUBLE_MASK


def sample_records(
    family: FamilyDescriptor,
    B: int,
    sample_size: int,
    seed: int,
    S=(INF,),
    threads: int = 1,
) -> RecordSet:
    """Seeded uniform sample of smooth-fibre points of height <= B.

    The seed is split into _STREAMS independent streams, each
    drawing its share of the rows; the rows are concatenated in stream
    order and decided in contiguous blocks of at most _BLOCK_ROWS rows,
    spread over min(threads, streams) threads.  A row's count does not
    depend on its block, so the output is byte-identical for any thread
    count.  The draws themselves run in order on the calling thread: they
    are small and hold the GIL.  A sample whose rows and columns exceed
    physical memory, or whose coordinates int64 cannot hold (B >= 2^63),
    raises SizeRefused before anything is drawn.
    """
    if B < 3:
        raise ValueError("need B >= 3")
    if sample_size < 1:
        raise ValueError("need a positive sample size")
    if threads < 1:
        raise ValueError("need threads >= 1")
    if B >= 1 << 63:
        raise SizeRefused(f"a sample at B={B} needs coordinates past int64 (B < 2^63)")
    # int64 rows, then int64 omegas and heights and a bool taint column
    check_fits_in_memory(sample_size * (8 * (family.n + 1) + 17), f"a sample of {sample_size}")
    S = tuple(S)
    children = np.random.SeedSequence(seed).spawn(_STREAMS)
    sizes = [sample_size // _STREAMS + (i < sample_size % _STREAMS) for i in range(_STREAMS)]
    jobs = [(c, w) for c, w in zip(children, sizes) if w]
    draws = [_sample_chunk(family, B, w, c) for c, w in jobs]
    rows = np.concatenate([d[0] for d in draws])
    workers = min(threads, len(jobs))
    per_worker = math.ceil(len(rows) / (workers * _BLOCK_ROWS))
    blocks = np.array_split(rows, workers * per_worker)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda blk: _sample_block(family, blk, S), blocks))
    return RecordSet(
        family,
        B,
        S,
        np.concatenate([p[0] for p in parts]),
        np.abs(rows).max(axis=1),
        np.concatenate([p[1] for p in parts]),
        sum(d[1] for d in draws),
    )


# ---------------------------------------------------------------------------
# sigma tables and centerings


def _sigma_terms(family: FamilyDescriptor, top: int):
    """The primes A < p <= top and the exact fractions the sigma_p hook gives them."""
    if family.sigma_p is None:
        raise ValueError(f"no exact sigma entries for {family.name!r}")
    ps = primes_up_to(top)
    ps = ps[ps > family.A]
    num, den = family.sigma_p(ps)
    return ps, num, den


def sigma_entries(family: FamilyDescriptor, up_to: int) -> dict[int, Fraction]:
    """Exact sigma_p for the primes A < p <= up_to, from the family's sigma_p hook."""
    ps, num, den = _sigma_terms(family, up_to)
    return {p: Fraction(n, d) for p, n, d in zip(ps.tolist(), num.tolist(), den.tolist())}


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den correctly rounded, like float(Fraction(num, den)).

    An int64 above 2^53 rounds on its way to float64; such terms are
    divided as Python ints instead.
    """
    vals = num / den
    big = np.flatnonzero((np.abs(num) > 2**53) | (np.abs(den) > 2**53))
    vals[big] = [n / d for n, d in zip(num[big].tolist(), den[big].tolist())]
    return vals


# (sigma_p hook, A) -> (top, primes A < p <= top as float64, running sums of
# their sigma_p with a leading 0)
_SIGMA_PREFIX: dict[tuple, tuple[int, np.ndarray, np.ndarray]] = {}


def _sigma_prefix(family: FamilyDescriptor, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted primes A < p <= at least top, and the float prefix sums of sigma_p.

    Each entry is the hook's num / den, correctly rounded, so it equals
    float(Fraction(num, den)); csum[k] is the sum of the first k entries,
    added one at a time in prime order, so it equals a float sum over the
    same primes bit for bit.  The table is cached per (sigma_p, A), so a
    renamed family shares it and a different sigma_p gets its own; it is
    rebuilt only when a larger top is asked for, and each build makes one
    sigma_p call.
    """
    key = (family.sigma_p, family.A)
    cached = _SIGMA_PREFIX.get(key)
    if cached is None or cached[0] < top:
        ps, num, den = _sigma_terms(family, top)
        cached = (top, ps.astype(float), np.concatenate([[0.0], np.cumsum(_ratio(num, den))]))
        _SIGMA_PREFIX[key] = cached
    return cached[1], cached[2]


def _center_sums(family: FamilyDescriptor, heights: np.ndarray) -> np.ndarray:
    """Sum of sigma_p over p <= h for each height h >= 0, from the family's cached prefix table.

    Entry h reads csum[k] for the k table primes <= h.  Dense heights
    (a span max(h) - min(h) below twice their number, as in a block of the
    classic set) gather from that sum spelled out for every integer from
    min(h) to max(h), csum[k] repeated over the gap from the k-th prime to
    the next; sparse ones, such as a sample at large B or the single height
    B, find k by binary search instead of paying 8 bytes for every integer
    of the span.  Either way each entry is the same csum[k].  Float heights
    holding integers are accepted.
    """
    if not len(heights):
        return np.zeros(0)
    bottom, top = int(heights.min()), int(heights.max())
    ps, csum = _sigma_prefix(family, top)
    if top - bottom >= 2 * len(heights):
        return csum[np.searchsorted(ps, heights, side="right")]
    check_fits_in_memory(8 * (top - bottom + 1), f"the sigma sums from {bottom} to {top}")
    lo, hi = np.searchsorted(ps, [bottom, top], side="right").tolist()
    gaps = np.diff(ps[lo:hi].astype(np.int64), prepend=bottom, append=top + 1)
    return np.repeat(csum[lo : hi + 1], gaps)[(heights - bottom).astype(np.intp, copy=False)]


def build_sigma_table(
    family: FamilyDescriptor, p_max: int, cutoffs: Optional[Sequence[int]] = None
) -> SigmaTable:
    """Exact sigma entries up to p_max with partial sums and the beta fit."""
    entries = sigma_entries(family, p_max)
    fit = sigma_partial_sums(entries, family.Delta, cutoffs)
    return SigmaTable(entries, dict(fit.partial_sums), fit.beta)


@dataclass(frozen=True)
class SigmaFit:
    """Constant-term fit of partial sums against Delta log log x."""

    beta: float
    partial_sums: dict[int, float]
    residuals: dict[int, float]
    envelope_constant: float
    slope: float
    intercept: float


def sigma_partial_sums(sigma, Delta, cutoffs: Optional[Sequence[int]] = None) -> SigmaFit:
    """Fit sum_{p<=x} sigma_p ~ Delta log log x + beta over a cutoff grid.

    beta is the least-squares constant (the mean deviation); residuals are
    reported per cutoff together with the smallest constant C making
    |residual| <= C / log x across the grid.  A free linear regression on
    log log x is included so the slope can be compared with Delta.
    """
    if float(Delta) <= 0:
        raise ValueError("Delta must be positive (tau_histogram covers Delta = 0)")
    entries = sigma.entries if isinstance(sigma, SigmaTable) else dict(sigma)
    ps = sorted(entries)
    if len(ps) < 25:
        raise ValueError("need at least 25 sigma entries for a stable fit")
    vals = np.array([float(entries[p]) for p in ps])
    cums = np.cumsum(vals)
    pa = np.array(ps, float)
    if cutoffs is None:
        lo = ps[min(24, len(ps) - 1)]
        grid = np.geomspace(lo, ps[-1], 24)
        cutoffs = sorted({int(round(x)) for x in grid})
    cutoffs = [int(x) for x in cutoffs]
    if any(x < 3 for x in cutoffs):
        raise ValueError("cutoffs must be at least 3")
    idx = np.searchsorted(pa, cutoffs, side="right")
    if (idx < 25).any():
        raise ValueError("every cutoff must cover at least 25 primes")
    sums = cums[idx - 1]
    llx = np.log(np.log(np.array(cutoffs, float)))
    dev = sums - float(Delta) * llx
    beta = float(dev.mean())
    resid = dev - beta
    envelope = float(np.max(np.abs(resid) * np.log(np.array(cutoffs, float))))
    slope, intercept = np.polyfit(llx, sums, 1)
    return SigmaFit(
        beta,
        {c: float(s) for c, s in zip(cutoffs, sums)},
        {c: float(r) for c, r in zip(cutoffs, resid)},
        envelope,
        float(slope),
        float(intercept),
    )


# ---------------------------------------------------------------------------
# moments


# rows per block in standardized_values and moment_series: each float
# temporary of a block takes 512 KiB, whatever the number of rows
_BLOCK = 1 << 16


def _mu_reference(r: int) -> float:
    if r % 2:
        return 0.0
    h = r // 2
    return math.factorial(r) / (2**h * math.factorial(h))


@dataclass(frozen=True)
class MomentReport:
    B: int
    r: int
    value: float
    centering: str
    mu_r_reference: float


# how moments and KS distances centre omega: on Delta log log H, or on the sigma_p partial sums
CENTERINGS = ("paper", "empirical")


def _check_reduction(Delta, centering: str):
    if float(Delta) <= 0:
        raise ValueError("Delta must be positive (tau_histogram covers Delta = 0)")
    if centering not in CENTERINGS:
        raise ValueError(f"centering must be one of {CENTERINGS}")


def moment_series(
    records: RecordSet,
    B: int,
    Delta,
    r_max: int,
    centering: str = "paper",
) -> list[MomentReport]:
    """Standardized moments r = 0..r_max of the obstruction counts at height bound B.

    The r-th entry is the r-th power mean of (omega - center) / scale, with
    scale = sqrt(Delta log log B), over untainted smooth fibres of height
    >= 3, next to the normal reference moment.  Centering "paper" uses
    Delta log log B itself; "empirical" uses the sum of the record set's
    family sigma_p over p <= B, which differs by a constant and converges
    much faster at accessible heights.  That sum is read off the family's
    cached prefix table, so repeated calls take no exact sigma_p twice.

    The usable rows, the centre and the scale are found once for every r.
    omega is an integer count of any dtype, so each order raises the
    standardized value of every count 0..max(omega) once and gathers it per
    row, _BLOCK rows at a time, into one float buffer reused for every r: a
    row's term goes through the same float operations as
    ((omega - center) / scale) ** r and the mean sees the same terms in the
    same order, so each value is that formula's bit for bit.  The r = 0
    entry is 1 whatever the rows.
    """
    _check_reduction(Delta, centering)
    if r_max < 0 or int(r_max) != r_max:
        raise ValueError("moment order must be a non-negative integer")
    reports = [MomentReport(B, 0, 1.0, centering, 1.0)]
    if r_max == 0:
        return reports
    om, _ = _usable(records)
    if not len(om):
        raise ValueError("no usable records")
    if not np.issubdtype(om.dtype, np.integer) or om.min() < 0:
        raise ValueError("omega counts must be non-negative integers")
    llB = math.log(math.log(B))
    if centering == "paper":
        center = float(Delta) * llB
    else:
        center = float(_center_sums(records.family, np.array([B]))[0])
    scale = math.sqrt(float(Delta) * llB)
    base = (np.arange(int(om.max()) + 1) - center) / scale
    terms = np.empty(len(om))
    for r in range(1, int(r_max) + 1):
        table = base**r
        # a narrow index is cast to intp a block at a time, not through
        # numpy's buffered fancy-index iterator; every index is in range, so
        # "clip" changes no value and spares take a buffered copy of out
        for lo in range(0, len(om), _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            np.take(table, om[blk].astype(np.intp, copy=False), out=terms[blk], mode="clip")
        value = float(np.mean(terms))
        reports.append(MomentReport(B, r, value, centering, _mu_reference(r)))
    return reports


def moments(
    records: RecordSet,
    B: int,
    Delta,
    r: int,
    centering: str = "paper",
) -> MomentReport:
    """The r-th standardized moment at height bound B: entry r of moment_series."""
    return moment_series(records, B, Delta, r, centering)[int(r)]


# ---------------------------------------------------------------------------
# truncated statistics


@dataclass(frozen=True)
class TruncationWindow:
    """Prime window (t0, t1] feeding the truncated centered count."""

    r: int
    t0: float
    t1: float

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("window must target a moment order r >= 1")
        if not (1 < self.t0 < self.t1):
            raise ValueError(f"need 1 < t0 < t1, got t0={self.t0}, t1={self.t1}")


def moment_window(B: int, r: int, n: int) -> TruncationWindow:
    """The asymptotic cutoff choice t0 = (log log B)^{2r}, t1 = B^{1/(5r(n+1))}.

    These separate only for astronomically large B; at accessible heights
    t0 >= t1 and the constructor reports the degeneracy instead of
    producing an unusable window.
    """
    llB = math.log(math.log(B))
    t0 = llB ** (2 * r)
    t1 = B ** (1.0 / (5 * r * (n + 1)))
    if not (1 < t0 < t1 < B):
        raise ValueError(
            f"window degenerate at B={B}: t0={t0:.3f}, t1={t1:.3f} "
            "(the asymptotic cutoffs need far larger B)"
        )
    return TruncationWindow(r, t0, t1)


def _window_sigma_sum(window: TruncationWindow, sigma):
    """The sum of sigma's entries over the primes in (t0, t1], added in prime order."""
    entries = sigma.entries if isinstance(sigma, SigmaTable) else dict(sigma)
    total = Fraction(0)
    for p in primes_up_to(int(window.t1)).tolist():
        if window.t0 < p <= window.t1:
            if p not in entries:
                raise ValueError(f"sigma table is missing p={p} inside the window")
            total = total + entries[p]
    return total


def _window_hits(record: ObstructionRecord, window: TruncationWindow) -> int:
    return sum(1 for pl in record.insoluble_places if pl != INF and window.t0 < pl <= window.t1)


def truncated_omega(record: ObstructionRecord, window: TruncationWindow, sigma):
    """Centered count over the window: #insoluble primes in (t0,t1] minus
    the sigma sum there.  Exact (Fraction) when the entries are exact."""
    return _window_hits(record, window) - _window_sigma_sum(window, sigma)


def truncated_moments(
    records: Iterable[ObstructionRecord],
    B: int,
    Delta,
    window: TruncationWindow,
    sigma,
    r: int,
) -> MomentReport:
    """Moment of the windowed centered counts, normalized like moments().

    Needs full records (the place lists), so it runs on scan() output or
    sampled record lists rather than columnar sets.  The window's sigma sum
    is taken once; each record's value equals truncated_omega's.
    """
    if float(Delta) <= 0:
        raise ValueError("Delta must be positive")
    if r < 0 or int(r) != r:
        raise ValueError("moment order must be a non-negative integer")
    if not window.t1 < B:
        raise ValueError("window must sit strictly below the height bound")
    if r == 0:
        return MomentReport(B, 0, 1.0, "truncated", 1.0)
    total = _window_sigma_sum(window, sigma)
    vals = [
        float(_window_hits(rec, window) - total)
        for rec in records
        if not rec.tainted and rec.point.height >= 3
    ]
    if not vals:
        raise ValueError("no usable records")
    scale = math.sqrt(float(Delta) * math.log(math.log(B)))
    value = float(np.mean([(v / scale) ** r for v in vals]))
    return MomentReport(B, int(r), value, "truncated", _mu_reference(int(r)))


# ---------------------------------------------------------------------------
# the exact histogram


@dataclass(frozen=True)
class TauHistogram:
    """Exact distribution of the obstruction count over one scan.

    masses are fractions of all enumerated points, so the masses plus the
    singular and tainted fractions partition 1 exactly.
    """

    B: int
    counts: dict[int, int]
    masses: dict[int, Fraction]
    tainted_count: int
    singular_count: int
    point_count: int

    def __post_init__(self):
        if sum(self.counts.values()) + self.tainted_count + self.singular_count != self.point_count:
            raise ValueError("partition identity violated")
        for j, c in self.counts.items():
            if self.masses.get(j) != Fraction(c, self.point_count):
                raise ValueError("masses must be counts over the point count")


def _as_tally(records) -> ScanTally:
    """A ScanTally as it is; a RecordSet's untainted omegas binned into one."""
    if isinstance(records, ScanTally):
        return records
    om = np.asarray(records.omegas)
    # an integer column needs no check and no copy
    if om.dtype.kind not in "iu" and not np.array_equal(om, np.round(om)):
        raise ValueError("histogram needs integer counts")
    binned = np.bincount(om.astype(np.int64, copy=False)[~np.asarray(records.tainted, bool)])
    return ScanTally(
        int(records.B),
        tuple(binned.tolist()),
        records.tainted_count,
        records.singular_count,
        records.point_count,
    )


def tau_histogram(records) -> TauHistogram:
    """Histogram of omega over untainted smooth fibres, exact fractions.

    records is a ScanTally or a RecordSet, whose rows are binned first;
    the bound and the singular count come from it.
    """
    tally = _as_tally(records)
    total = tally.point_count
    counts = {j: c for j, c in enumerate(tally.counts) if c}
    masses = {j: Fraction(c, total) for j, c in counts.items()}
    return TauHistogram(tally.B, counts, masses, tally.tainted_count, tally.singular_count, total)


def n_moments(records, r: int) -> Fraction:
    """Average of omega^r over untainted smooth fibres, exact.

    records is a ScanTally or a RecordSet.  Equals sum_j j^r tau(j)
    rescaled by point_count/untainted_count, since the histogram masses are
    taken over all enumerated points.
    """
    if r < 1 or int(r) != r:
        raise ValueError("moment order must be a positive integer")
    tally = _as_tally(records)
    if tally.untainted_count == 0:
        raise ValueError("no untainted records")
    # power sum in exact integers
    return Fraction(sum(c * j**r for j, c in enumerate(tally.counts)), tally.untainted_count)


# ---------------------------------------------------------------------------
# distance to the normal law


def standardized_values(records: RecordSet, Delta, centering: str = "paper") -> np.ndarray:
    """Per-point standardized counts (omega - center(H)) / sqrt(Delta log log H).

    center(H) is Delta log log H ("paper") or the sum of the family's
    sigma_p over p <= H ("empirical", read off the same cached prefix table
    as moment_series).  Tainted rows and heights below 3 are dropped; with
    no row left the result is empty under either centering.  The result is
    a fresh float array, rows in the set's order; a row's value depends on
    its own omega and height only.  It is worked out _BLOCK rows at a time,
    in place in the result and one block-sized float column, with the same
    operations per element as the formula above, so the centres and the
    log log H values never take a full-length column.
    """
    _check_reduction(Delta, centering)
    om, hts = _usable(records)
    if centering == "empirical" and len(hts):
        # one prefix table serves every block and moment_series' centre at B;
        # its entries are running sums in prime order, so its length alters none
        _sigma_prefix(records.family, max(int(records.B), int(hts.max())))
    z = np.empty(len(om))
    for lo in range(0, len(om), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        zb = z[blk]
        zb[:] = om[blk]
        if centering == "empirical":
            zb -= _center_sums(records.family, hts[blk])
        llh = hts[blk].astype(float)
        np.log(llh, out=llh)
        np.log(llh, out=llh)
        llh *= float(Delta)
        if centering == "paper":
            zb -= llh
        np.sqrt(llh, out=llh)
        zb /= llh
    return z


# The standard normal CDF, transcribed from Cephes (S. L. Moshier, ndtr.c:
# ndtr, erf, erfc, polevl, p1evl; the coefficients as scipy.special carries
# them in its cephes/ndtr.h).  Every operation runs in cephes' order on Python
# floats, so a value equals scipy.special.ndtr's bit for bit, without the
# import of scipy.

_MAXLOG = 7.09782712893383996732e2
_SQRTH = 7.07106781186547524401e-1
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """_polevl with a leading coefficient 1, which coef leaves out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            y = z * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
        else:
            y = z * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0  # underflow


def _ndtr(a: float) -> float:
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


# A block's bound may fall short of one of its terms by the port's departures
# from monotone, a few ulp of Phi (~1e-16); blocks are refined down to this.
_KS_SLACK = 1e-12


def ks_distance(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between standardized values and the
    standard normal: max over the sorted values x_0 <= ... <= x_{n-1} of
    Phi(x_i) - i/n and i/n + 1/n - Phi(x_i).

    Phi is _ndtr, a pure-Python port of ndtr.c from S. L. Moshier's Cephes
    Math Library, with its coefficients as scipy.special carries them, and
    only a few values take it.  The sorted column is cut into blocks of isqrt(n) values
    and Phi is taken at each block's two ends.  Phi rises, so a block's terms
    are at most Phi(hi) - lo/n and hi/n + 1/n - Phi(lo); only the blocks whose
    bound reaches the largest term seen so far, less _KS_SLACK, are taken in
    full, largest bound first.  The result equals the formula evaluated at
    every value with scipy.special.ndtr, bit for bit.

    z is left as it is.  Fewer than 100 values is an error.
    """
    n = len(z)
    if n < 100:
        raise ValueError("need at least 100 usable records")
    z = np.sort(z)
    if math.isnan(z[-1]):
        return math.nan
    k = math.isqrt(n)
    los = range(0, n, k)
    his = [min(lo + k, n) - 1 for lo in los]
    phi_lo = list(map(_ndtr, z[::k].tolist()))
    phi_hi = list(map(_ndtr, z[his].tolist()))
    step = 1.0 / n
    best = max(
        max(phi - i / n, i / n + step - phi)
        for i, phi in zip([*los, *his], phi_lo + phi_hi)
    )
    bounds = sorted(
        ((max(ph - lo / n, hi / n + step - pl), lo, hi)
         for lo, hi, pl, ph in zip(los, his, phi_lo, phi_hi)),
        reverse=True,
    )
    for bound, lo, hi in bounds:
        if bound < best - _KS_SLACK:
            break
        for i, x in enumerate(z[lo : hi + 1].tolist(), lo):
            phi = _ndtr(x)
            best = max(best, phi - i / n, i / n + step - phi)
    return best


def gaussian_distance(records: RecordSet, Delta, centering: str = "paper") -> float:
    """ks_distance of the record set's standardized_values."""
    return ks_distance(standardized_values(records, Delta, centering))


# ---------------------------------------------------------------------------
# the Euler-product limit prediction


@dataclass(frozen=True)
class TauPrediction:
    j: int
    prime_cutoff: int
    value: float
    std_error: float
    tail_bound: float

    def __float__(self):
        return self.value


def _density_pair(entry) -> tuple[float, float]:
    if isinstance(entry, DiskDensityEstimate):
        # undecided disks could fall either way; fold them into the error
        return entry.value, entry.standard_error + entry.unknown_fraction
    if isinstance(entry, tuple):
        v, se = entry
        return float(v), float(se)
    return float(entry), 0.0


def cubic_density_table(
    prime_cutoff: int,
    sample_size: int = 60_000,
    seed: int = 0,
) -> dict[int, DiskDensityEstimate]:
    """Monte Carlo insoluble-disk densities for the cubic family, per prime.

    Disks are sampled at precision 10 / 7 / 4 for p = 2 / 3 / larger,
    enough to pin unit cube classes.  Every prime's modulus is checked
    (disk_modulus) before the first draw, so a cutoff whose largest disks
    cannot be sampled raises SizeRefused at once.
    """
    depths = {p: 10 if p == 2 else 7 if p == 3 else 4 for p in primes_up_to(prime_cutoff).tolist()}
    for p, d in depths.items():
        disk_modulus(p, d)
    fam = diagonal_cubics()
    return {p: sigma_empirical(fam, p, sample_size, d, seed=seed + p) for p, d in depths.items()}


def tau_limit_prediction(
    family: FamilyDescriptor,
    j: int,
    prime_cutoff: int,
    density_source,
) -> TauPrediction:
    """Probability that exactly j primes obstruct, in the independent-disk
    limit model: the degree-j coefficient of prod_p ((1-q_p) + q_p z) over
    primes up to the cutoff.

    density_source maps each prime <= cutoff to its insoluble density (a
    DiskDensityEstimate, a (value, error) pair, or a bare number).  The
    reported error adds the per-prime errors in quadrature, each weighted
    by the product's partial derivative in that prime's density; the tail
    bound is the d/p envelope of the first omitted prime.
    """
    if family.Delta != 0:
        raise ValueError("limit histogram exists only when Delta = 0")
    if j < 0 or int(j) != j:
        raise ValueError("j must be a non-negative integer")
    if prime_cutoff < 2:
        raise ValueError("prime cutoff must be at least 2")
    ps = [int(p) for p in primes_up_to(prime_cutoff)]
    qs, ses = [], []
    for p in ps:
        if callable(density_source):
            entry = density_source(p)
        else:
            if p not in density_source:
                raise ValueError(f"density source is missing p={p}")
            entry = density_source[p]
        q, se = _density_pair(entry)
        if not 0 <= q <= 1:
            raise ValueError(f"density at p={p} outside [0,1]")
        qs.append(q)
        ses.append(se)

    def coeff(skip: Optional[int]) -> np.ndarray:
        poly = np.zeros(j + 2)
        poly[0] = 1.0
        for k, q in enumerate(qs):
            if k == skip:
                continue
            upd = poly * (1 - q)
            upd[1:] += poly[:-1] * q
            poly = upd
        return poly

    full = coeff(None)
    value = float(full[j])
    var = 0.0
    for k in range(len(qs)):
        if ses[k] == 0.0:
            continue
        reduced = coeff(k)
        partial = (reduced[j - 1] if j >= 1 else 0.0) - reduced[j]
        var += (partial * ses[k]) ** 2
    tail = family.f.degree / float(prime_cutoff)
    return TauPrediction(int(j), int(prime_cutoff), value, math.sqrt(var), tail)


# ---------------------------------------------------------------------------
# classic cross-check


def classic_omega_set(limit: int, low: int = 3) -> RecordSet:
    """omega(m) for low <= m <= limit as a RecordSet.

    The integers stand in for heights, divisibility for insolubility:
    sigma_p = 1/p and Delta = 1, so the same reductions apply verbatim.
    Each prime p <= r = isqrt(limit) counts at its multiples.  An integer
    <= limit has at most one prime factor above r, so each larger prime P
    is counted through its cofactor k = m / P <= limit // (r + 1): for each
    k, one pass adds 1 at k * P for the primes r < P <= limit // k, and no
    index repeats within a pass.  The omegas are int8, converted once from
    the int16 sieve counts (omega(m) <= 15 for every m < 6.1e17), and the
    heights int64; the heights are strictly increasing and no row is
    tainted.  Columns that would exceed physical memory are refused with a
    SizeRefused before any is allocated.
    """
    if limit < max(low, 3):
        raise ValueError("limit too small")
    if low < 1:
        raise ValueError("low must be at least 1")
    # the prime sieve's bool and the int16 counts per integer 0..limit, the
    # int64 primes (pi(x) < 1.26 x / log x) and one cofactor multiple of
    # them, then int8 omegas, int64 heights and a bool taint column per row
    size = limit - low + 1
    primes_bytes = 16 * int(1.26 * limit / math.log(limit))
    check_fits_in_memory((limit + 1) * 3 + primes_bytes + size * 10, f"omega(m) for m <= {limit}")
    ps = primes_up_to(limit)
    r = math.isqrt(limit)
    small = int(np.searchsorted(ps, r, side="right"))
    om = np.zeros(limit + 1, np.int16)
    for p in ps[:small].tolist():
        om[p::p] += 1
    large = ps[small:]
    for k in range(1, limit // (r + 1) + 1):
        om[k * large[: np.searchsorted(large, limit // k, side="right")]] += 1
    omegas = om[low:].astype(np.int8)
    m = np.arange(low, limit + 1, dtype=np.int64)
    return RecordSet(CLASSIC_OMEGA, limit, (), omegas, m, np.zeros(size, bool), 0)
