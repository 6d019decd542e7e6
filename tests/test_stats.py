"""Record sets, moments, histograms, sigma fits, KS distance, predictions."""

import bisect
import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as hyp
from scipy.special import ndtr

from fibstat import families, localsolve, stats
from fibstat.arith import factorize, primes_up_to
from fibstat.families import (
    CubicDecider,
    DiskDensityEstimate,
    Undecided,
    conic_sigma_formula,
    diagonal_conics,
    diagonal_cubics,
    omega_pi,
)
from fibstat.localsolve import INF
from fibstat.projective import count_points, point_slabs
from fibstat.stats import (
    CLASSIC_OMEGA,
    MomentReport,
    RecordSet,
    ScanSummary,
    ScanTally,
    TruncationWindow,
    build_sigma_table,
    classic_omega_set,
    cubic_density_table,
    gaussian_distance,
    ks_distance,
    moment_series,
    moments,
    n_moments,
    moment_window,
    record_set,
    sample_records,
    scan,
    scan_tally,
    sigma_entries,
    sigma_partial_sums,
    standardized_values,
    tau_histogram,
    tau_limit_prediction,
    truncated_moments,
    truncated_omega,
)

CONICS = diagonal_conics()
CUBICS = diagonal_cubics()


# ---------------------------------------------------------------------------
# record sets and the two scan routes


def test_scan_small_conics():
    records, summary = scan(CONICS, 5)
    assert summary.point_count == count_points(2, 5)
    assert summary.point_count == len(records) + summary.singular_count
    assert summary.tainted_count == 0
    for rec in records:
        assert rec.omega == len(rec.insoluble_places)
        assert rec.point.height <= 5


def test_scan_rejects_tiny_bound():
    with pytest.raises(ValueError):
        scan(CONICS, 2)
    with pytest.raises(ValueError):
        record_set(CONICS, 1)


def _assert_same_columns(via_scan, fast):
    # record_set fills preallocated columns and returns the filled rows
    for col in ("omegas", "heights", "tainted"):
        want, got = getattr(via_scan, col), getattr(fast, col)
        assert got.dtype == want.dtype and np.array_equal(got, want), col
    assert via_scan.summary() == fast.summary()


def test_vectorized_conic_route_matches_scalar():
    # S = (2,) leaves out a prime <= A, which is otherwise decided on every row
    for S in ((INF,), (), (2,)):
        records, summary = scan(CONICS, 12, S)
        via_scan = RecordSet.from_records(records, CONICS, 12, S, summary.singular_count)
        _assert_same_columns(via_scan, record_set(CONICS, 12, S))


def test_vectorized_cubic_route_matches_scalar():
    # B = 9 is the least bound with a cubic obstruction (at 3, through the
    # coefficient 9), so leaving 3 out changes the counts; with S = () the
    # real place goes through the scan and never obstructs
    obstructed = []
    for S in ((INF,), (3,), ()):
        records, summary = scan(CUBICS, 9, S)
        via_scan = RecordSet.from_records(records, CUBICS, 9, S, summary.singular_count)
        fast = record_set(CUBICS, 9, S)
        _assert_same_columns(via_scan, fast)
        assert fast.tainted_count == 0
        obstructed.append(int(fast.omegas.sum()))
    assert obstructed[0] > obstructed[1]
    assert obstructed[2] == obstructed[0]


def test_record_set_drops_primes_of_s_from_the_table():
    # at B = 15 the coordinate 15 has two primes > A, 3 and 5, both in S
    S = (3, 5, INF)
    records, summary = scan(CONICS, 15, S)
    via_scan = RecordSet.from_records(records, CONICS, 15, S, summary.singular_count)
    _assert_same_columns(via_scan, record_set(CONICS, 15, S))


def _verdicts_everywhere(model, verdict):
    # the model with every code given one verdict
    def verdicts(codes):
        return np.full(np.shape(codes), verdict, np.int8)

    return dataclasses.replace(model, verdicts=verdicts)


def test_record_set_tests_each_prime_once_per_row():
    # one prime q at a time decides every code insoluble and every other
    # prime every code soluble, so a row's omega counts the times q was
    # tested on it; the scan never calls theta_grid
    def theta_grid(rows, v):
        raise AssertionError(f"theta_grid called at {v}")

    S = (3, 5, INF)
    smooth = np.concatenate([s[(s != 0).all(axis=1)] for s in point_slabs(2, 15)])
    primes = primes_up_to(15).tolist()
    for q in primes:
        requested = set()

        def digit_model(p):
            requested.add(p)
            return _verdicts_everywhere(CONICS.digit_model(p), int(p == q))

        spy = dataclasses.replace(CONICS, theta_grid=theta_grid, digit_model=digit_model)
        omegas = record_set(spy, 15, S).omegas
        assert requested == {p for p in primes if p not in S}
        # 7 divides both 7 and 14, so a row can meet a prime twice
        assert omegas.max(initial=0) <= 1, q
        divided = (smooth % q == 0).any(axis=1)
        want = divided | (q <= CONICS.A) if q not in S else np.zeros(len(smooth), bool)
        assert np.array_equal(omegas == 1, want), q
    # nor with the real place outside S
    quiet = dataclasses.replace(CONICS, theta_grid=theta_grid)
    _assert_same_columns(record_set(CONICS, 15, ()), record_set(quiet, 15, ()))


def _moody():
    # the conics with every verdict at 3 undecided
    def theta(x, v):
        if v == 3:
            raise Undecided(x.coords, v)
        return CONICS.theta(x, v)

    def digit_model(p):
        model = CONICS.digit_model(p)
        return _verdicts_everywhere(model, 2) if p == 3 else model

    return dataclasses.replace(CONICS, name="moody", theta=theta, digit_model=digit_model)


def test_undecided_grid_verdicts_taint_like_the_scalar_route():
    moody = _moody()
    records, summary = scan(moody, 12)
    fast = record_set(moody, 12)
    assert fast.omegas.tolist() == [r.omega for r in records]
    assert fast.tainted.tolist() == [r.tainted for r in records]
    assert fast.tainted_count == summary.tainted_count > 0


def test_record_set_partition():
    rs = record_set(CONICS, 10)
    assert rs.point_count == count_points(2, 10)
    assert rs.point_count == len(rs.omegas) + rs.singular_count
    assert rs.untainted_count + rs.tainted_count == len(rs.omegas)
    assert rs.summary() == ScanSummary(rs.point_count, rs.singular_count, 0)


def test_record_set_refuses_columns_above_physical_memory():
    # count_points(3, 200) rows take about 203 GB of columns; the check
    # comes before any allocation
    with pytest.raises(ValueError, match="physical memory"):
        record_set(CUBICS, 200)


def _tally_against_columns(family, B, S=(INF,)):
    # scan_tally holds what tau_histogram bins from record_set's columns
    tally = scan_tally(family, B, S)
    th = tau_histogram(record_set(family, B, S))
    assert {j: c for j, c in enumerate(tally.counts) if c} == th.counts
    assert tally.tainted_count == th.tainted_count
    assert tally.singular_count == th.singular_count
    assert tally.point_count == th.point_count
    assert sum(tally.counts) + tally.tainted_count + tally.singular_count == count_points(
        family.n, B
    )
    assert tau_histogram(tally) == th
    return tally


@pytest.mark.parametrize("B", [3, 10, 15])
@pytest.mark.parametrize("S", [(INF,), (), (2, 3)])
def test_scan_tally_matches_the_column_path_conics(B, S):
    _tally_against_columns(CONICS, B, S)


@pytest.mark.parametrize("B", [6, 9])
def test_scan_tally_matches_the_column_path_cubics(B):
    _tally_against_columns(CUBICS, B)


def test_scan_tally_counts_tainted_rows_like_the_column_path():
    assert _tally_against_columns(_moody(), 12).tainted_count > 0


@pytest.mark.parametrize("family, B, S", [(CONICS, 30, ()), (CUBICS, 12, (INF,))])
def test_scan_tally_thread_count_invariance(family, B, S):
    # more threads than cores, switching often: a lead taken twice or
    # dropped by the shared walk would change the counts
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tallies = [scan_tally(family, B, S, threads=t) for t in (1, 2, 4)]
        moody = [scan_tally(_moody(), 12, threads=t) for t in (1, 4)]
    finally:
        sys.setswitchinterval(interval)
    assert tallies[0] == tallies[1] == tallies[2]
    assert moody[0] == moody[1] and moody[0].tainted_count > 0


def test_scan_tally_decides_every_class_on_the_calling_thread(monkeypatch):
    # the verdict tables are built anew for each scan from pinned classes,
    # with no search; warm runs every verdict lookup before the threads start
    searched, threads_seen = [], set()
    search = localsolve.padic_point_search

    def spy(form, p, **kwargs):
        searched.append(threading.get_ident())
        return search(form, p, **kwargs)

    def digit_model(v):
        model = CUBICS.digit_model(v) if v == INF else CubicDecider(v).model

        def verdicts(codes):
            threads_seen.add(threading.get_ident())
            return model.verdicts(codes)

        return dataclasses.replace(model, verdicts=verdicts)

    monkeypatch.setattr(localsolve, "padic_point_search", spy)
    spied = dataclasses.replace(CUBICS, digit_model=digit_model)
    calls = []
    for threads in (1, 4):
        searched.clear()
        families._cubic_verdicts.cache_clear()
        scan_tally(spied, 12, threads=threads)
        calls.append(len(searched))
    assert calls[0] == calls[1] == 0
    assert threads_seen == {threading.get_ident()}


def test_scan_tally_refuses_grids_above_physical_memory():
    # one tail grid at B = 2000 has 4001^3 = 6.4e10 cells; the check comes
    # before any grid is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            scan_tally(CUBICS, 2000)
        assert tracemalloc.get_traced_memory()[1] < 16 << 20
    finally:
        tracemalloc.stop()


def test_scan_tally_validation():
    with pytest.raises(ValueError):
        scan_tally(CONICS, 2)
    with pytest.raises(ValueError):
        scan_tally(CONICS, 10, threads=0)
    with pytest.raises(ValueError, match="partition"):
        ScanTally(10, (3, 1), 0, 1, 6)


@pytest.mark.parametrize("family, B, threads", [(CONICS, 3, 8), (CUBICS, 4, 7)])
def test_scan_tally_more_threads_than_leads(family, B, threads):
    # the split clamps to one task per lead, each with a one-lead range
    assert scan_tally(family, B, threads=threads) == scan_tally(family, B)


def test_sample_records_refuses_a_sample_above_physical_memory():
    # 10^13 rows take about 410 TB of rows and columns; the check comes
    # before any draw
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            sample_records(CONICS, 10**5, 10**13, seed=0)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_truncate_height():
    rs = record_set(CONICS, 10)
    cut = rs.truncate_height(6)
    assert cut.B == 6
    assert (cut.heights <= 6).all()
    # the singular tally is only known for the full box
    assert cut.singular_count == 0
    full = rs.truncate_height(10)
    assert full.singular_count == rs.singular_count
    assert np.array_equal(full.omegas, rs.omegas)
    # rows below the cut agree with a direct scan at that bound
    direct = record_set(CONICS, 6)
    assert np.sort(cut.omegas).tolist() == np.sort(direct.omegas).tolist()


def test_truncate_height_refuses_a_limit_above_b():
    # the set holds no rows between its B and the limit, so it cannot claim them
    rs = record_set(CONICS, 5)
    with pytest.raises(ValueError, match="larger"):
        rs.truncate_height(50)
    assert rs.truncate_height(5).B == 5


def test_record_set_column_mismatch():
    with pytest.raises(ValueError):
        RecordSet(
            CONICS,
            5,
            (),
            np.zeros(3, np.int64),
            np.zeros(2, np.int64),
            np.zeros(3, bool),
            0,
        )


# ---------------------------------------------------------------------------
# sampling


def test_sampler_thread_count_invariance():
    one = sample_records(CONICS, 50, 600, seed=3, threads=1)
    two = sample_records(CONICS, 50, 600, seed=3, threads=2)
    assert np.array_equal(one.omegas, two.omegas)
    assert np.array_equal(one.heights, two.heights)
    assert one.singular_count == two.singular_count


def test_sampler_rows_are_plausible():
    rs = sample_records(CONICS, 50, 400, seed=9)
    assert len(rs.omegas) == 400
    assert (rs.heights >= 1).all() and (rs.heights <= 50).all()
    assert (rs.omegas >= 0).all()
    assert rs.singular_count >= 0


def test_sampler_parity_with_empty_s():
    # with no excluded places the insoluble places pair up: omega is even
    rs = sample_records(CONICS, 50, 600, seed=3, S=())
    assert (rs.omegas % 2 == 0).all()


@pytest.mark.parametrize(
    "fam, S, B, want",
    [
        (CONICS, (), 20, 150),
        (CUBICS, (INF,), 20, 150),
        (CONICS, (INF,), 10**12, 40),
        (CUBICS, (INF,), 10**6, 40),
    ],
    ids=["conics", "cubics", "conics-1e12", "cubics-1e6"],
)
def test_sampler_matches_scalar_omega(fam, S, B, want):
    # replay the first draw of each stream, which holds its w smooth rows,
    # and decide each row with the scalar omega_pi.  At B = 1e12 the
    # coordinates are above the factor table and their primes far above
    # any row count.
    seed = 4
    rs = sample_records(fam, B, want, seed=seed, S=S)
    rows = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(stats._STREAMS)):
        w = want // stats._STREAMS + (i < want % stats._STREAMS)
        raw = np.random.default_rng(child).integers(-B, B + 1, size=(2 * w + 64, fam.n + 1))
        cand = raw[np.gcd.reduce(np.abs(raw), axis=1) == 1]
        smooth = cand[(cand != 0).all(axis=1)]
        assert len(smooth) >= w
        rows.extend(smooth[:w].tolist())
    assert len(rows) == want
    recs = [omega_pi(fam, row, S) for row in rows]
    assert rs.omegas.tolist() == [r.omega for r in recs]
    assert rs.tainted.tolist() == [r.tainted for r in recs]


def test_sampler_more_threads_than_rows():
    one = sample_records(CONICS, 10**5, 3, seed=5, threads=1)
    many = sample_records(CONICS, 10**5, 3, seed=5, threads=8)
    for col in ("omegas", "heights", "tainted"):
        assert getattr(one, col).tobytes() == getattr(many, col).tobytes()
    assert one.singular_count == many.singular_count


def test_sampler_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_records(CONICS, 50, 0, seed=1)
    with pytest.raises(ValueError):
        sample_records(CONICS, 2, 10, seed=1)


@pytest.mark.parametrize("threads", [0, -1])
def test_sampler_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="need threads >= 1"):
        sample_records(CONICS, 50, 10, seed=1, threads=threads)


# ---------------------------------------------------------------------------
# sigma tables and partial-sum fits


def test_conic_sigma_table_entries():
    tab = build_sigma_table(CONICS, 1000)
    assert 2 not in tab.entries
    assert len(tab.entries) == len(primes_up_to(1000)) - 1
    for p in (3, 5, 97):
        assert tab.entries[p] == conic_sigma_formula(p)
    assert tab.entries[3] == Fraction(6, 13)


def test_conic_partial_sum_fit_frozen():
    # p_max 1e5, 24 geometric cutoffs: values pinned from this implementation
    tab = build_sigma_table(CONICS, 100_000)
    fit = sigma_partial_sums(tab.entries, Fraction(3, 2))
    assert abs(fit.slope - 1.4729) < 2e-3
    assert abs(fit.beta - (-0.4052)) < 2e-3
    assert fit.envelope_constant < 0.5
    cutoffs = sorted(fit.partial_sums)
    upper = cutoffs[len(cutoffs) // 2 :]
    betas = [
        fit.partial_sums[x] - 1.5 * math.log(math.log(x)) for x in upper
    ]
    assert max(betas) - min(betas) < 0.05


def test_classic_partial_sums_track_mertens():
    sigma = {int(p): Fraction(1, int(p)) for p in primes_up_to(100_000)}
    fit = sigma_partial_sums(sigma, 1)
    assert abs(fit.slope - 0.9809) < 2e-3
    # the constant term sits near Mertens' 0.2615
    assert abs(fit.beta - 0.2661) < 2e-3


def test_partial_sum_validation():
    sigma = {int(p): Fraction(1, int(p)) for p in primes_up_to(1000)}
    with pytest.raises(ValueError, match="tau_histogram"):
        sigma_partial_sums(sigma, 0)
    with pytest.raises(ValueError):
        sigma_partial_sums({3: Fraction(1, 3)}, 1)
    with pytest.raises(ValueError):
        sigma_partial_sums(sigma, 1, cutoffs=[50])  # covers fewer than 25 primes
    with pytest.raises(ValueError):
        sigma_partial_sums(sigma, 1, cutoffs=[2, 500])


def test_residuals_center_on_zero():
    tab = build_sigma_table(CONICS, 20_000)
    fit = sigma_partial_sums(tab.entries, Fraction(3, 2))
    assert abs(sum(fit.residuals.values())) < 1e-9


# ---------------------------------------------------------------------------
# moments


def test_moment_order_zero_is_one():
    rs = classic_omega_set(500)
    rep = moments(rs, 500, 1, 0)
    assert rep.value == 1.0 and rep.mu_r_reference == 1.0


def test_normal_reference_moments():
    rs = classic_omega_set(500)
    refs = {r: moments(rs, 500, 1, r).mu_r_reference for r in (1, 2, 3, 4, 6)}
    assert refs == {1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 6: 15.0}


def test_moment_matches_hand_computation():
    rs = classic_omega_set(2000)
    llB = math.log(math.log(2000))
    scale = math.sqrt(llB)
    rep = moments(rs, 2000, 1, 1, centering="paper")
    hand = float(np.mean((rs.omegas - llB) / scale))
    assert abs(rep.value - hand) < 1e-12
    center = sum(1.0 / int(p) for p in primes_up_to(2000))
    rep_e = moments(rs, 2000, 1, 1, centering="empirical")
    hand_e = float(np.mean((rs.omegas - center) / scale))
    assert abs(rep_e.value - hand_e) < 1e-12


def test_moments_drop_low_heights_and_taint():
    rs = record_set(CONICS, 12)
    rep = moments(rs, 12, Fraction(3, 2), 2, centering="paper")
    keep = rs.heights >= 3
    llB = math.log(math.log(12))
    z = (rs.omegas[keep] - 1.5 * llB) / math.sqrt(1.5 * llB)
    assert abs(rep.value - float(np.mean(z**2))) < 1e-12


@pytest.mark.parametrize("family", ["classic", "conics"])
@pytest.mark.parametrize("centering", ["paper", "empirical"])
def test_moment_series_matches_the_power_formula_bitwise(family, centering):
    if family == "classic":
        rs, Delta = classic_omega_set(10**5), 1
        entries = {int(p): Fraction(1, int(p)) for p in primes_up_to(rs.B)}
    else:
        rs, Delta = sample_records(CONICS, 3000, 2000, seed=11), CONICS.Delta
        entries = sigma_entries(CONICS, rs.B)
    keep = ~rs.tainted & (rs.heights >= 3)
    om = rs.omegas[keep].astype(float)
    llB = math.log(math.log(rs.B))
    if centering == "paper":
        center = float(Delta) * llB
    else:
        center = _reference_prefix(entries)(rs.B)
    scale = math.sqrt(float(Delta) * llB)
    series = moment_series(rs, rs.B, Delta, 12, centering)
    assert [rep.r for rep in series] == list(range(13))
    for r, rep in enumerate(series):
        assert rep.value == float(np.mean(((om - center) / scale) ** r)), r
        assert rep == moments(rs, rs.B, Delta, r, centering)


def test_moment_series_validation():
    rs = classic_omega_set(500)
    assert moment_series(rs, 500, 1, 0) == [moments(rs, 500, 1, 0)]
    with pytest.raises(ValueError):
        moment_series(rs, 500, 1, -1)
    empty = rs.truncate_height(2)
    assert [rep.value for rep in moment_series(empty, 500, 1, 0)] == [1.0]
    with pytest.raises(ValueError, match="no usable records"):
        moment_series(empty, 500, 1, 1)
    fractional = dataclasses.replace(rs, omegas=rs.omegas + 0.5)
    with pytest.raises(ValueError, match="non-negative integers"):
        moment_series(fractional, 500, 1, 2)


@pytest.mark.parametrize("centering", ["paper", "empirical"])
def test_moment_series_reads_any_integer_dtype_alike(centering):
    # the classic set's int8 omegas and an int64 copy gather the same terms
    # over more than one block
    rs = classic_omega_set(2 * stats._BLOCK + 3)
    wide = dataclasses.replace(rs, omegas=rs.omegas.astype(np.int64))
    assert moment_series(rs, rs.B, 1, 8, centering) == moment_series(wide, rs.B, 1, 8, centering)


def test_moments_validation():
    rs = classic_omega_set(500)
    with pytest.raises(ValueError, match="tau_histogram"):
        moments(rs, 500, 0, 2)
    with pytest.raises(ValueError):
        moments(rs, 500, 1, -1)
    with pytest.raises(ValueError):
        moments(rs, 500, 1, 2, centering="other")
    # a family without exact sigma_p has no empirical centering
    inexact = dataclasses.replace(CONICS, sigma_p=None)
    rs = RecordSet.from_records(scan(inexact, 8)[0], inexact, 8, (INF,))
    assert isinstance(moments(rs, 8, Fraction(3, 2), 1), MomentReport)
    with pytest.raises(ValueError, match="no exact sigma entries"):
        moments(rs, 8, Fraction(3, 2), 1, centering="empirical")


# ---------------------------------------------------------------------------
# truncation windows


def test_window_validation():
    with pytest.raises(ValueError):
        TruncationWindow(0, 2.0, 5.0)
    with pytest.raises(ValueError):
        TruncationWindow(1, 5.0, 2.0)
    with pytest.raises(ValueError):
        TruncationWindow(1, 0.5, 2.0)


def test_moment_window_degenerates_at_desk_scale():
    for B in (10**4, 10**5, 10**8):
        with pytest.raises(ValueError, match="degenerate"):
            moment_window(B, 2, 2)


def test_moment_window_opens_at_astronomical_heights():
    w = moment_window(10**80, 1, 2)
    llB = math.log(math.log(10**80))
    assert w.r == 1
    assert abs(w.t0 - llB**2) < 1e-9
    assert abs(w.t1 - (10**80) ** (1 / 15)) < 1e-3
    assert w.t0 < w.t1


def test_truncated_omega_exact():
    records, _ = scan(CONICS, 30)
    tab = build_sigma_table(CONICS, 200)
    window = TruncationWindow(1, 2.0, 10.0)
    expect_center = tab.entries[3] + tab.entries[5] + tab.entries[7]
    for rec in records[:40]:
        got = truncated_omega(rec, window, tab)
        hits = sum(1 for pl in rec.insoluble_places if pl != INF and 2 < pl <= 10)
        assert got == hits - expect_center
        assert isinstance(got, Fraction)


def test_truncated_omega_missing_entry():
    records, _ = scan(CONICS, 8)
    window = TruncationWindow(1, 2.0, 7.0)
    with pytest.raises(ValueError, match="missing p=5"):
        truncated_omega(records[0], window, {3: Fraction(6, 13), 7: Fraction(4, 19)})


def test_truncated_moments_match_hand_sum():
    records, _ = scan(CONICS, 30)
    tab = build_sigma_table(CONICS, 200)
    window = TruncationWindow(1, 2.0, 10.0)
    rep = truncated_moments(records, 30, Fraction(3, 2), window, tab, 1)
    scale = math.sqrt(1.5 * math.log(math.log(30)))
    vals = [
        float(truncated_omega(rec, window, tab)) / scale
        for rec in records
        if not rec.tainted and rec.point.height >= 3
    ]
    assert abs(rep.value - float(np.mean(vals))) < 1e-12
    assert rep.centering == "truncated"


def test_truncated_moments_bits_equal_a_mean_of_truncated_omegas():
    # the window's sigma sum is taken once; every record's value keeps its bits
    records, _ = scan(CONICS, 30)
    tab = build_sigma_table(CONICS, 200)
    window = TruncationWindow(1, 2.0, 10.0)
    scale = math.sqrt(1.5 * math.log(math.log(30)))
    usable = [rec for rec in records if not rec.tainted and rec.point.height >= 3]
    for sigma in (tab, dict(tab.entries)):
        vals = [float(truncated_omega(rec, window, sigma)) for rec in usable]
        for r in (1, 2):
            rep = truncated_moments(records, 30, Fraction(3, 2), window, sigma, r)
            assert rep.value == float(np.mean([(v / scale) ** r for v in vals]))


def test_truncated_moments_window_must_fit():
    records, _ = scan(CONICS, 8)
    tab = build_sigma_table(CONICS, 200)
    with pytest.raises(ValueError):
        truncated_moments(records, 8, Fraction(3, 2), TruncationWindow(1, 2.0, 9.0), tab, 2)


# ---------------------------------------------------------------------------
# the exact histogram


def test_tau_partition_identity_conics():
    rs = record_set(CONICS, 10)
    th = tau_histogram(rs)
    assert th.point_count == count_points(2, 10)
    total = sum(th.masses.values()) + Fraction(
        th.tainted_count + th.singular_count, th.point_count
    )
    assert total == 1


def test_tau_partition_identity_cubics():
    rs = record_set(CUBICS, 6)
    th = tau_histogram(rs)
    assert th.tainted_count == 0
    assert sum(th.counts.values()) + th.singular_count == th.point_count
    for j, c in th.counts.items():
        assert th.masses[j] == Fraction(c, th.point_count)


def test_tau_histogram_from_plain_records():
    records, summary = scan(CONICS, 8)
    th = tau_histogram(RecordSet.from_records(records, CONICS, 8, (INF,), summary.singular_count))
    rs_th = tau_histogram(record_set(CONICS, 8))
    assert th == rs_th


def test_tau_histogram_rejects_non_integer():
    rs = RecordSet(
        CONICS, 5, (), np.array([0.5, 1.0]), np.array([3, 4]), np.zeros(2, bool), 0
    )
    with pytest.raises(ValueError):
        tau_histogram(rs)


def test_histogram_moment_identity():
    # sum_j j^r tau(j) equals the direct power mean, exactly, once the
    # histogram's all-points denominator is swapped for the untainted count
    rs = record_set(CUBICS, 6)
    th = tau_histogram(rs)
    for r in (1, 2, 3):
        direct = n_moments(rs, r)
        via_masses = (
            sum(Fraction(j**r) * m for j, m in th.masses.items())
            * Fraction(th.point_count, rs.untainted_count)
        )
        assert direct == via_masses
        assert n_moments(scan_tally(CUBICS, 6), r) == direct


def test_n_moments_validation():
    rs = record_set(CONICS, 8)
    with pytest.raises(ValueError):
        n_moments(rs, 0)
    assert n_moments(rs, 1) == Fraction(int(rs.omegas.sum()), len(rs.omegas))


# ---------------------------------------------------------------------------
# distance to the normal law


def test_gaussian_distance_on_synthetic_normal():
    rng = np.random.default_rng(7)
    H, N = 1000, 5000
    center = math.log(math.log(H))
    om = center + math.sqrt(center) * rng.standard_normal(N)
    rs = RecordSet(CLASSIC_OMEGA, H, (), om, np.full(N, H, np.int64), np.zeros(N, bool), 0)
    ks = gaussian_distance(rs, 1)
    assert ks < 2 / math.sqrt(N)


def test_gaussian_distance_degenerate_mass():
    H = 1000
    center = math.log(math.log(H))
    om = np.full(200, center)
    rs = RecordSet(CLASSIC_OMEGA, H, (), om, np.full(200, H, np.int64), np.zeros(200, bool), 0)
    assert abs(gaussian_distance(rs, 1) - 0.5) < 1e-12


def test_gaussian_distance_validation():
    rs = classic_omega_set(50)
    with pytest.raises(ValueError):
        gaussian_distance(rs, 0)
    with pytest.raises(ValueError):
        gaussian_distance(classic_omega_set(90), 1)  # under 100 rows
    # no row of height >= 3 is left: both centerings standardize nothing
    empty = classic_omega_set(100).truncate_height(2)
    for centering in ("paper", "empirical"):
        assert standardized_values(empty, 1, centering).tolist() == []
        with pytest.raises(ValueError, match="at least 100 usable records"):
            gaussian_distance(empty, 1, centering=centering)


def _ks_oracle(z):
    """The KS distance written out on fresh arrays."""
    z = np.sort(z)
    n = len(z)
    cdf = ndtr(z)
    steps = np.arange(n, dtype=float)
    return float(max(np.max(steps / n + 1.0 / n - cdf), np.max(cdf - steps / n)))


def _standardized_oracle(rs, Delta, centering):
    keep = ~rs.tainted & (rs.heights >= 3)
    om, hts = rs.omegas[keep].astype(float), rs.heights[keep].astype(float)
    llh = np.log(np.log(hts))
    if centering == "paper":
        center = float(Delta) * llh
    else:
        center = stats._center_sums(rs.family, hts)
    return (om - center) / np.sqrt(float(Delta) * llh)


@pytest.mark.parametrize("centering", ["paper", "empirical"])
def test_baseline_stage_prefixes_match_truncated_sets(centering):
    # the heights of the classic set rise strictly and no row is tainted, so
    # the rows up to each baseline stage limit standardize to a prefix
    B = 10**5
    rs = classic_omega_set(B)
    z = standardized_values(rs, 1, centering)
    assert z.tolist() == _standardized_oracle(rs, 1, centering).tolist()
    for limit in sorted({min(B, max(1000, B // k)) for k in (100, 10, 1)}):
        k = int(np.searchsorted(rs.heights, limit, "right"))
        cut = rs.truncate_height(limit)
        assert ks_distance(z[:k]) == gaussian_distance(cut, 1, centering=centering)
        assert ks_distance(z[:k]) == _ks_oracle(_standardized_oracle(cut, 1, centering))


@pytest.mark.parametrize("centering", ["paper", "empirical"])
@pytest.mark.parametrize("family", ["classic", "conics"])
def test_standardized_blocks_match_the_one_shot_formula_bitwise(family, centering):
    n = 2 * stats._BLOCK + 1
    if family == "classic":
        rs, Delta = classic_omega_set(n + 2), 1
        assert len(rs.omegas) == n
    else:
        # unsorted heights spread over 10^6, every seventh row tainted
        rs, Delta = sample_records(CONICS, 10**6, n, seed=4), CONICS.Delta
        rs = dataclasses.replace(rs, tainted=np.arange(n) % 7 == 0)
    got = standardized_values(rs, Delta, centering)
    want = _standardized_oracle(rs, Delta, centering)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_ks_distance_leaves_its_input_alone():
    z = np.random.default_rng(5).standard_normal(500)
    before = z.copy()
    assert ks_distance(z) == _ks_oracle(before)
    assert z.tolist() == before.tolist()


def _ulps_around(x, count):
    """x and the count floats on either side of it."""
    up, down = [x], [x]
    for _ in range(count):
        up.append(float(np.nextafter(up[-1], np.inf)))
        down.append(float(np.nextafter(down[-1], -np.inf)))
    return down[::-1] + up[1:]


def test_ndtr_port_matches_scipy_bit_for_bit():
    # the edges of every branch: ndtr's |a| = 1 (|x| = sqrt(1/2)), erf and
    # erfc's |x| = 1, erfc's |x| = 8, the MAXLOG underflow, and zero
    edges = [1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * stats._MAXLOG), 1e-300, 0.0]
    grid = [s * v for e in edges for v in _ulps_around(e, 300) for s in (1.0, -1.0)]
    grid += np.linspace(-45, 45, 90_001).tolist()
    grid += np.linspace(-3, 3, 30_001).tolist() + [math.inf, -math.inf, 38.5, -38.5, 50.0, -50.0]
    x = np.array(grid)
    want = ndtr(x)
    got = np.array([stats._ndtr(v) for v in grid])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # -0.0 and 0.0 differ here


@pytest.mark.parametrize(
    "n, draw",
    [
        (100, lambda rng, n: rng.standard_normal(n)),
        (99**2, lambda rng, n: rng.standard_normal(n)),
        (99**2 + 1, lambda rng, n: rng.standard_normal(n)),  # a last block of one value
        (2500, lambda rng, n: np.full(n, rng.standard_normal())),
        (2501, lambda rng, n: rng.integers(-3, 4, n) / 2.0),  # heavy ties
        (3000, lambda rng, n: np.concatenate([rng.standard_normal(n - 40), rng.uniform(38, 60, 40)])
         * rng.choice([-1.0, 1.0], n)),  # tails past |z| = 38, where Phi is 0 or 1
        (1000, lambda rng, n: rng.standard_normal(n) + 0.3),
    ],
)
def test_ks_distance_screen_matches_oracle(n, draw):
    for seed in range(5):
        z = draw(np.random.default_rng(seed), n)
        assert ks_distance(z) == _ks_oracle(z)


def test_ks_distance_of_a_nan_is_nan():
    z = np.random.default_rng(3).standard_normal(400)
    z[17] = np.nan
    assert math.isnan(ks_distance(z)) and math.isnan(_ks_oracle(z))


def test_gaussian_distance_classic_both_centerings():
    rs = classic_omega_set(20_000)
    paper = gaussian_distance(rs, 1, centering="paper")
    empirical = gaussian_distance(rs, 1, centering="empirical")
    assert 0 < paper < 1 and 0 < empirical < 1
    # the sigma-sum centering absorbs the Mertens constant, so it sits closer
    assert empirical < paper


# ---------------------------------------------------------------------------
# the limit histogram prediction


def test_tau_prediction_exact_toy():
    qs = {2: 0.0, 3: 0.5, 5: 0.25, 7: 0.0}
    # product: (0.5 + 0.5 z)(0.75 + 0.25 z)
    expect = {0: 0.375, 1: 0.5, 2: 0.125, 3: 0.0}
    for j, v in expect.items():
        pred = tau_limit_prediction(CUBICS, j, 7, qs)
        assert abs(pred.value - v) < 1e-12
        assert pred.std_error == 0.0
        assert pred.tail_bound == CUBICS.f.degree / 7
        assert float(pred) == pred.value


def test_tau_prediction_error_propagation():
    src = {2: (0.3, 0.01)}
    p0 = tau_limit_prediction(CUBICS, 0, 2, src)
    p1 = tau_limit_prediction(CUBICS, 1, 2, src)
    assert abs(p0.value - 0.7) < 1e-12 and abs(p1.value - 0.3) < 1e-12
    assert abs(p0.std_error - 0.01) < 1e-12
    assert abs(p1.std_error - 0.01) < 1e-12
    # two primes: errors add in quadrature, weighted by the partial derivatives
    # dP0/dq = -(1 - q_other) and dP1/dq = 1 - 2 q_other
    src = {2: (0.3, 0.01), 3: (0.2, 0.02)}
    p0 = tau_limit_prediction(CUBICS, 0, 3, src)
    p1 = tau_limit_prediction(CUBICS, 1, 3, src)
    assert abs(p0.value - 0.56) < 1e-12 and abs(p1.value - 0.38) < 1e-12
    assert abs(p0.std_error - math.sqrt((0.8 * 0.01) ** 2 + (0.7 * 0.02) ** 2)) < 1e-12
    assert abs(p1.std_error - math.sqrt((0.6 * 0.01) ** 2 + (0.4 * 0.02) ** 2)) < 1e-12


def test_tau_prediction_folds_unknown_fraction():
    est = DiskDensityEstimate(2, 4, 100, 0.3, 0.01, 0.02)
    pred = tau_limit_prediction(CUBICS, 1, 2, {2: est})
    assert abs(pred.std_error - 0.03) < 1e-12


def test_tau_prediction_callable_source():
    pred = tau_limit_prediction(CUBICS, 0, 13, lambda p: 0.0)
    assert pred.value == 1.0


def test_tau_prediction_validation():
    with pytest.raises(ValueError):
        tau_limit_prediction(CONICS, 1, 7, {})  # Delta != 0
    with pytest.raises(ValueError):
        tau_limit_prediction(CUBICS, -1, 7, lambda p: 0.0)
    with pytest.raises(ValueError, match="missing p=3"):
        tau_limit_prediction(CUBICS, 0, 3, {2: 0.1})
    with pytest.raises(ValueError):
        tau_limit_prediction(CUBICS, 0, 2, {2: 1.5})


def test_cubic_density_table_shape():
    table = cubic_density_table(13, sample_size=400, seed=5)
    assert set(table) == {2, 3, 5, 7, 11, 13}
    for p, est in table.items():
        assert est.prime == p
        assert 0 <= est.value <= 1
    # only split primes can obstruct; the rest must come out structurally zero
    assert table[5].value == 0.0 and table[11].value == 0.0


def test_cubic_density_table_draws_are_pinned():
    # the report prints no unknown_fraction: these pin which sampled disks are kept
    want = {
        2: (0.0, 0.0, 0.00325),
        3: (0.03045, 0.0012149649686307832, 0.00595),
        5: (0.0, 0.0, 0.0065),
        7: (0.0445, 0.0014580766440760238, 0.00185),
        11: (0.0, 0.0, 0.00015),
        13: (0.0146, 0.00084814031857942, 0.00015),
        17: (0.0, 0.0, 0.00015),
        19: (0.00755, 0.0006120864930710365, 0.0),
        23: (0.0, 0.0, 0.0),
        29: (0.0, 0.0, 0.0),
    }
    table = cubic_density_table(30, 20000, seed=0)
    got = {p: (e.value, e.standard_error, e.unknown_fraction) for p, e in table.items()}
    assert got == want


# ---------------------------------------------------------------------------
# classic cross-check


def test_classic_omega_values():
    rs = classic_omega_set(30)
    expect = [1, 1, 1, 2, 1, 1, 1, 2, 1, 2, 1, 2, 2, 1, 1, 2, 1, 2, 2, 2, 1, 2, 1, 2, 1, 2, 1, 3]
    assert rs.omegas.tolist() == expect
    assert rs.heights.tolist() == list(range(3, 31))
    assert rs.family is CLASSIC_OMEGA


@settings(max_examples=60, deadline=None)
@given(hyp.integers(min_value=3, max_value=2000))
def test_classic_omega_matches_factorization(m):
    rs = classic_omega_set(2000)
    assert rs.omegas[m - 3] == len(factorize(m))


def test_classic_omega_validation():
    with pytest.raises(ValueError):
        classic_omega_set(2)
    with pytest.raises(ValueError):
        classic_omega_set(10, low=0)


def test_classic_omegas_are_int8():
    rs = classic_omega_set(10**4)
    assert rs.omegas.dtype == np.int8 and rs.heights.dtype == np.int64


# exact prime powers and prime squares sit on the small-prime sieve's edge;
# a limit just below a prime square, the product of the primes either side
# of sqrt(limit) and twice a large prime are where the cofactor passes over
# the primes above sqrt(limit) are tightest; (10**4, 1) covers every m <= 10^4
@pytest.mark.parametrize(
    "limit, low",
    [(3, 3), (4, 1), (97, 3), (1000, 7), (10007, 3), (10007, 5000),
     (2**13, 3), (2**13, 1), (101**2, 3), (101**2, 10000), (7**4, 7), (10**4, 1),
     (101**2 - 1, 3), (101 * 103, 3), (2 * 4999, 3), (3, 1)],
)
def test_classic_omega_matches_sympy(limit, low):
    rs = classic_omega_set(limit, low)
    assert rs.omegas.tolist() == [sympy.primenu(m) for m in range(low, limit + 1)]
    assert rs.heights.tolist() == list(range(low, limit + 1))


def test_primes_up_to_shares_its_last_sieve_read_only():
    primes = primes_up_to(1000)
    assert primes_up_to(1000) is primes
    assert not primes.flags.writeable
    with pytest.raises(ValueError):
        primes[0] = 4


def test_classic_omega_refuses_columns_above_physical_memory(monkeypatch):
    def sieve(_):
        raise AssertionError("sieved before the memory check")

    monkeypatch.setattr(stats, "primes_up_to", sieve)
    with pytest.raises(ValueError, match="physical memory"):
        classic_omega_set(10**13)


# ---------------------------------------------------------------------------
# empirical centering against the exact entries, summed one by one in prime order


_CENTER_HEIGHTS = {
    "ints": lambda: np.arange(3, 1000),
    "floats": lambda: np.arange(3, 1000).astype(float),
    "below first prime": lambda: np.array([0, 1, 2, 3, 0, 2]),
    "one height": lambda: np.array([997]),
    "one float height": lambda: np.array([997.0]),
    "unsorted": lambda: np.random.default_rng(3).integers(0, 5000, 800),
    "classic set": lambda: classic_omega_set(10**5).heights,
}


@pytest.mark.parametrize("family", [CLASSIC_OMEGA, CONICS], ids=["classic", "conics"])
@pytest.mark.parametrize("cached_above", [False, True])
@pytest.mark.parametrize("name", list(_CENTER_HEIGHTS))
def test_center_sums_paths_match_binary_search(monkeypatch, family, cached_above, name):
    # every integer up to max(h) appended makes the heights dense, one height
    # far above the rest makes them sparse; on either path, and on h's own,
    # h's entries read csum at the number of table primes <= h
    monkeypatch.setattr(stats, "_SIGMA_PREFIX", {})
    h = _CENTER_HEIGHTS[name]()
    top = int(h.max())
    if cached_above:
        stats._sigma_prefix(family, 2 * top + 10**4)
    dense = np.concatenate([h, np.arange(top + 1, dtype=h.dtype)])
    sparse = np.concatenate([h, np.array([2 * len(h) + top + 2], h.dtype)])
    for heights in (h, dense, sparse):
        ps, csum = stats._sigma_prefix(family, int(heights.max()))
        expect = csum[np.searchsorted(ps, heights, side="right")]
        assert stats._center_sums(family, heights).tolist() == expect.tolist()


@pytest.mark.parametrize("family", [CLASSIC_OMEGA, CONICS], ids=["classic", "conics"])
def test_center_sums_of_a_band_far_above_zero(family):
    # a dense band spells out its sums from its lowest height, not from 0
    band = np.arange(10**5, 10**5 + 1000)
    ps, csum = stats._sigma_prefix(family, int(band[-1]))
    expect = csum[np.searchsorted(ps, band, side="right")]
    assert stats._center_sums(family, band).tolist() == expect.tolist()
    assert stats._center_sums(family, band[::-1]).tolist() == expect[::-1].tolist()


def _reference_prefix(entries):
    """Height -> the float sum of the entries over p <= height, added in prime order."""
    ps = list(entries)
    running = [0.0, *itertools.accumulate(float(v) for v in entries.values())]
    return lambda h: running[bisect.bisect_right(ps, h)]


@pytest.mark.parametrize("family", ["classic", "conics"])
def test_empirical_centering_matches_exact_entries(family):
    if family == "classic":
        rs, Delta = classic_omega_set(20_000), 1
        entries = {int(p): Fraction(1, int(p)) for p in primes_up_to(rs.B)}
    else:
        rs, Delta = sample_records(CONICS, 3000, 2000, seed=11), CONICS.Delta
        entries = sigma_entries(CONICS, rs.B)
    keep = (~rs.tainted) & (rs.heights >= 3)
    om, hts = rs.omegas[keep].astype(float), rs.heights[keep]
    prefix = _reference_prefix(entries)
    center = prefix(rs.B)
    scale = math.sqrt(float(Delta) * math.log(math.log(rs.B)))
    for r in range(1, 5):
        got = moments(rs, rs.B, Delta, r, centering="empirical").value
        assert got == float(np.mean(((om - center) / scale) ** r)), r
    # per point, the prefix at each height is a running sum in prime order
    centers = np.array([prefix(h) for h in hts.tolist()])
    llh = np.log(np.log(hts.astype(float)))
    want = (om - centers) / np.sqrt(float(Delta) * llh)
    assert standardized_values(rs, Delta, "empirical").tolist() == want.tolist()


def test_empirical_centering_takes_each_sigma_once(monkeypatch):
    calls = {}

    def counted(ps):
        for p in ps.tolist():
            calls[p] = calls.get(p, 0) + 1
        return CONICS.sigma_p(ps)

    fam = dataclasses.replace(CONICS, sigma_p=counted)
    monkeypatch.setattr(stats, "_SIGMA_PREFIX", {})
    rs = sample_records(fam, 3000, 500, seed=2)
    for r in range(1, 5):
        moments(rs, rs.B, CONICS.Delta, r, centering="empirical")
    standardized_values(rs, CONICS.Delta, "empirical")
    gaussian_distance(rs, CONICS.Delta, centering="empirical")
    assert sorted(calls) == [p for p in primes_up_to(3000).tolist() if p > CONICS.A]
    assert set(calls.values()) == {1}
    # a larger bound rebuilds the table once; smaller ones read it
    calls.clear()
    for B in (5000, 3000, 5000):
        moments(rs, B, CONICS.Delta, 2, centering="empirical")
    assert sorted(calls) == [p for p in primes_up_to(5000).tolist() if p > CONICS.A]
    assert set(calls.values()) == {1}


def test_empirical_centering_follows_the_family_not_its_name():
    rs = record_set(CONICS, 12)
    renamed = record_set(dataclasses.replace(CONICS, name="renamed"), 12)
    for r in range(1, 5):
        assert moments(renamed, 12, CONICS.Delta, r, "empirical") == moments(
            rs, 12, CONICS.Delta, r, "empirical"
        )
    assert (
        standardized_values(renamed, CONICS.Delta, "empirical").tolist()
        == standardized_values(rs, CONICS.Delta, "empirical").tolist()
    )
    assert gaussian_distance(renamed, CONICS.Delta, "empirical") == gaussian_distance(
        rs, CONICS.Delta, "empirical"
    )
    # the same name with another sigma_p is centred by its own table
    other = dataclasses.replace(CONICS, sigma_p=lambda ps: (np.ones_like(ps), ps))
    got = moments(dataclasses.replace(rs, family=other), 12, CONICS.Delta, 1, "empirical")
    center = 1 / 3 + 1 / 5 + 1 / 7 + 1 / 11
    keep = rs.heights >= 3
    scale = math.sqrt(1.5 * math.log(math.log(12)))
    assert got.value == float(np.mean((rs.omegas[keep] - center) / scale))
    assert got != moments(rs, 12, CONICS.Delta, 1, "empirical")


def test_conic_sigma_hook_floats_match_the_exact_formula():
    # every odd prime below 10^6, then primes where 2(p^2+p+1) passes 2^53
    # (from 6.7e7) and 2^54 (from 9.5e7), where an int64 is rounded to float
    small = primes_up_to(10**6)[1:]
    large = [67_108_879, 94_906_297, 100_000_037, 100_000_039, 2_000_000_011, 2_147_483_647]
    ps = np.concatenate([small, np.array(large, np.int64)])
    num, den = CONICS.sigma_p(ps)
    want = [float(conic_sigma_formula(p)) for p in ps.tolist()]
    assert stats._ratio(num, den).tolist() == want
    assert [Fraction(n, d) for n, d in zip(num[-6:].tolist(), den[-6:].tolist())] == [
        conic_sigma_formula(p) for p in large
    ]
