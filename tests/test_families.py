"""Family descriptors: theta, omega, sigma, calibration, grid engines."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fibstat import arith, families, localsolve
from fibstat.arith import SizeRefused, factorize, primes_up_to
from fibstat.families import (
    CubicDecider,
    DiskDensityEstimate,
    ObstructionRecord,
    Undecided,
    calibrate_A,
    conic_insoluble_density,
    conic_insoluble_grid,
    cube_class,
    diagonal_conics,
    diagonal_cubics,
    family_by_name,
    insoluble_density,
    omega_formula_conics,
    omega_pi,
    sigma_empirical,
    sigma_exact,
)
from fibstat.grouptheory import delta_total
from fibstat.localsolve import (
    INF,
    HomogeneousForm,
    Solubility,
    conic_soluble,
    hilbert,
    padic_point_search,
)
from fibstat.projective import ProjPoint, proj_size
from fibstat.stats import record_set


# ---------------------------------------------------------------------------
# descriptors


def test_conic_descriptor():
    fam = diagonal_conics()
    assert fam.n == 2 and fam.f.degree == 3 and fam.A == 2
    assert fam.Delta == Fraction(3, 2)
    assert fam.f.evaluate((2, 3, 5)) == 30
    assert fam.smooth((1, 1, 1))
    assert not fam.smooth((1, 0, 1))


def test_cubic_descriptor():
    fam = diagonal_cubics()
    assert fam.n == 3 and fam.f.degree == 4
    assert fam.Delta == 0
    assert fam.f.evaluate((1, 2, 3, 4)) == 24
    assert not fam.smooth((1, 2, 0, 4))


def test_delta_matches_divisor_actions():
    for fam in (diagonal_conics(), diagonal_cubics()):
        assert delta_total(fam.divisors) == fam.Delta


def test_family_by_name():
    assert family_by_name("diagonal_conics") is diagonal_conics()
    assert family_by_name("diagonal_cubics") is diagonal_cubics()
    with pytest.raises(ValueError):
        family_by_name("elliptic_pencils")


def test_renamed_family_gives_identical_results():
    # nothing may key on the family's name
    cases = [(diagonal_conics(), 12, 2, 6, 13), (diagonal_cubics(), 6, 3, 5, 7)]
    for fam, B, p, depth, p_max in cases:
        renamed = dataclasses.replace(fam, name="renamed")
        a, b = record_set(fam, B, S=()), record_set(renamed, B, S=())
        for col in ("omegas", "heights", "tainted"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        assert a.singular_count == b.singular_count
        assert sigma_empirical(fam, p, 2000, depth, seed=4) == sigma_empirical(
            renamed, p, 2000, depth, seed=4
        )
        assert calibrate_A(fam, p_max, B) == calibrate_A(renamed, p_max, B)
        assert insoluble_density(fam, p) == insoluble_density(renamed, p)


# ---------------------------------------------------------------------------
# theta


def test_conic_theta_frozen_values():
    fam = diagonal_conics()
    assert fam.theta((1, 1, 21), 3)
    assert fam.theta((1, 1, 21), 7)
    assert not fam.theta((1, 1, 21), 2)
    assert not fam.theta((1, 1, 21), 5)
    assert not fam.theta((1, 1, 21), INF)
    assert fam.theta((1, 1, -1), INF)
    # over the reals: insoluble exactly when a, b share a sign that c lacks
    assert not fam.theta((1, 1, 1), INF)
    assert not fam.theta((1, -1, 1), INF)
    assert fam.theta((-2, -3, 5), INF)


def test_conic_theta_bad_prime_contract():
    # an insoluble prime must divide the discriminant or be <= A
    fam = diagonal_conics()
    rng = np.random.default_rng(1)
    pts = rng.integers(-50, 51, size=(150, 3))
    pts = pts[(pts != 0).all(axis=1)]
    for row in pts.tolist():
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            if fam.theta(row, p):
                assert row[0] * row[1] * row[2] % p == 0


def test_cubic_theta_frozen_values():
    fam = diagonal_cubics()
    assert fam.theta((1, 2, 7, 14), 7)
    for p in (2, 3, 5, 7, 13, 31):
        assert not fam.theta((1, 1, 1, 1), p)
    assert not fam.theta((1, 2, 7, 14), INF)
    assert not fam.theta((4, -5, 6, 7), INF)


def test_cubic_theta_rejects_singular():
    with pytest.raises(ValueError):
        diagonal_cubics().theta((1, 0, 2, 3), 7)


def test_cubic_theta_bad_prime_contract():
    fam = diagonal_cubics()
    rng = np.random.default_rng(2)
    rows = rng.integers(-30, 31, size=(200, 4))
    rows = rows[(rows != 0).all(axis=1)]
    for p in (5, 7, 13):
        dec = CubicDecider(p)
        verdicts = dec.decide_grid(rows)
        for row, v in zip(rows.tolist(), verdicts):
            if v == 1:
                assert math.prod(row) % p == 0


# ---------------------------------------------------------------------------
# obstruction records


def test_record_validation():
    pt = ProjPoint.from_vector((1, 1, 21))
    with pytest.raises(ValueError):
        ObstructionRecord(pt, (3, 7), 3)
    with pytest.raises(ValueError):
        ObstructionRecord(pt, (7, 3), 2)
    rec = ObstructionRecord(pt, (3, 7, INF), 3)
    assert not rec.tainted


def test_omega_conics_frozen():
    fam = diagonal_conics()
    rec = omega_pi(fam, (1, 1, 21))
    assert rec.insoluble_places == (3, 7) and rec.omega == 2 and not rec.tainted
    assert omega_pi(fam, (1, 1, 1)).omega == 0


def test_omega_all_places_and_parity():
    fam = diagonal_conics()
    rec = omega_pi(fam, (1, 1, 21), S=())
    # the real place is soluble here, so S = {} changes nothing
    assert rec.insoluble_places == (3, 7) and rec.omega == 2
    # reciprocity makes the all-places count even for every smooth fibre
    rng = np.random.default_rng(3)
    pts = rng.integers(-40, 41, size=(120, 3))
    pts = pts[(pts != 0).all(axis=1)]
    for row in pts.tolist():
        assert omega_pi(fam, row, S=()).omega % 2 == 0


def test_omega_respects_S():
    fam = diagonal_conics()
    rec = omega_pi(fam, (1, 1, 21), S={3, INF})
    assert rec.insoluble_places == (7,) and rec.omega == 1
    rec2 = omega_pi(fam, (1, 1, -1), S=())
    assert INF in rec2.insoluble_places


def test_omega_rejects_singular_point():
    with pytest.raises(ValueError):
        omega_pi(diagonal_conics(), (1, 0, 21))


def test_omega_cubics():
    fam = diagonal_cubics()
    rec = omega_pi(fam, (1, 2, 7, 14))
    assert rec.insoluble_places == (7,) and rec.omega == 1 and not rec.tainted
    assert omega_pi(fam, (1, 1, 1, 1)).omega == 0


def test_omega_tainted_on_undecided():
    fam = diagonal_conics()

    def moody_theta(x, v):
        if v == 3:
            raise Undecided(tuple(x.coords if isinstance(x, ProjPoint) else x), v)
        return fam.theta(x, v)

    moody = dataclasses.replace(fam, name="moody", theta=moody_theta)
    rec = omega_pi(moody, (1, 1, 21))
    assert rec.tainted and rec.insoluble_places == (7,)


# ---------------------------------------------------------------------------
# the closed conic formula


def test_omega_formula_frozen():
    assert omega_formula_conics(1, 1, 21) == 2
    assert omega_formula_conics(5, 1, 1) == 0
    assert omega_formula_conics(1, 1, 1) == 0


@pytest.mark.parametrize(
    "abc", [(2, 1, 1), (3, 1, 1), (9, 1, 5), (5, 5, 1), (0, 1, 1), (21, 35, 1)]
)
def test_omega_formula_rejects(abc):
    with pytest.raises(ValueError):
        omega_formula_conics(*abc)


def admissible_triples(bound):
    ok = [
        v
        for v in range(-bound, bound + 1)
        if v != 0 and v % 4 == 1 and all(e == 1 for e in _sqfree(v))
    ]
    for a, b, c in itertools.product(ok, repeat=3):
        if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
            yield a, b, c


def _sqfree(v):
    from fibstat.arith import factorize

    return factorize(v).values()


def test_formula_matches_scan_small():
    fam = diagonal_conics()
    checked = 0
    for a, b, c in admissible_triples(30):
        assert omega_formula_conics(a, b, c) == omega_pi(fam, (a, b, c)).omega
        checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# sigma_p exact


def _oracle_nonsplit(rep, p):
    # structural + point-count classification, independent of the residue
    # symbol route: a double line is non-split; otherwise non-split conics
    # over F_p have exactly one rational point (the vertex of the pair of
    # conjugate lines), split ones have p+1 or 2p+1
    a, b, c = (v % p for v in rep)
    if (a == 0) + (b == 0) + (c == 0) >= 2:
        return True
    count = 0
    for zeros in range(3):
        for tail in itertools.product(range(p), repeat=2 - zeros):
            x = (0,) * zeros + (1,) + tail
            if (a * x[0] * x[0] + b * x[1] * x[1] - c * x[2] * x[2]) % p == 0:
                count += 1
    return count == 1


def test_sigma_exact_frozen_at_5():
    assert sigma_exact(diagonal_conics(), 5) == Fraction(9, 31)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_sigma_exact_matches_point_count_oracle(p):
    fam = diagonal_conics()
    count = 0
    for zeros in range(3):
        for tail in itertools.product(range(p), repeat=2 - zeros):
            rep = (0,) * zeros + (1,) + tail
            got = fam.nonsplit(rep, p)
            assert got == _oracle_nonsplit(rep, p), (rep, p)
            count += got
    assert sigma_exact(fam, p) == Fraction(count, proj_size(2, p))


def test_sigma_exact_sandwich():
    fam = diagonal_conics()
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        s = sigma_exact(fam, p)
        assert 0 < s <= Fraction(3, p)


def test_sigma_exact_rejections():
    with pytest.raises(ValueError):
        sigma_exact(diagonal_cubics(), 5)
    with pytest.raises(ValueError):
        sigma_exact(diagonal_conics(), 2)
    with pytest.raises(ValueError):
        sigma_exact(diagonal_conics(), 15)


# ---------------------------------------------------------------------------
# sigma_p empirical


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_conic_insoluble_density_matches_sampled_disks(p):
    # depth 12 leaves 2-adic unit parts mod 8 pinned on almost every disk
    est = sigma_empirical(diagonal_conics(), p, 40000, 12 if p == 2 else 6, seed=p)
    exact = conic_insoluble_density(p)
    assert isinstance(exact, Fraction)
    assert abs(est.value - float(exact)) <= 4 * est.standard_error + est.unknown_fraction


def test_conic_insoluble_density_frozen():
    # exact values recorded from the per-prime Hilbert-symbol sum this replaced
    frozen = {
        3: Fraction(9, 32),
        5: Fraction(5, 24),
        7: Fraction(21, 128),
        11: Fraction(11, 96),
        13: Fraction(39, 392),
        97: Fraction(291, 19208),
    }
    for p, want in frozen.items():
        assert conic_insoluble_density(p) == want, p


def test_cubic_insoluble_density_closed_forms():
    # at 10009 a search at p itself passes padic_point_search's cell cap;
    # the table built at 7 still decides every class
    fam = diagonal_cubics()
    for p in primes_up_to(97).tolist() + [10009]:
        got = insoluble_density(fam, p)
        assert isinstance(got, Fraction)
        if p % 3 == 1:
            want = Fraction(8 * p**2 * (p + 1) ** 2, 3 * (p**2 + p + 1) ** 3)
        else:
            want = Fraction(200, 6591) if p == 3 else Fraction(0)
        assert got == want, p


def test_sigma_empirical_cubics_decides_every_disk_above_the_search_cap():
    assert sigma_empirical(diagonal_cubics(), 10009, 20000, 4).unknown_fraction == 0


def test_cubic_insoluble_density_matches_sampled_disks():
    est = sigma_empirical(diagonal_cubics(), 7, 40000, 5, seed=7)
    exact = insoluble_density(diagonal_cubics(), 7)
    assert abs(est.value - float(exact)) <= 4 * est.standard_error + est.unknown_fraction


def test_insoluble_density_raises_on_an_undecided_code():
    fam = diagonal_conics()
    model = dataclasses.replace(fam.digit_model(5), verdicts=lambda codes: np.full(len(codes), 2, np.int8))
    moody = dataclasses.replace(fam, name="moody", digit_model=lambda p: model)
    with pytest.raises(Undecided):
        insoluble_density(moody, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("fam", [diagonal_conics(), diagonal_cubics()], ids=lambda f: f.name)
def test_digit_verdicts_invariant_under_common_scaling(fam, p):
    # the premise of insoluble_density: scaling a row by p keeps its verdict
    rng = np.random.default_rng(p)
    rows = rng.integers(-60, 61, size=(400, fam.n + 1))
    rows = rows[(rows != 0).all(axis=1)]
    model = fam.digit_model(p)
    assert model.grid(rows).tolist() == model.grid(p * rows).tolist()


def test_sigma_empirical_conics_vs_exact_disks():
    # oracle: exhaustive classification of residue disks mod 25
    p, depth = 5, 2
    M = p**depth
    stable_insoluble = unstable = total = 0
    for abc in itertools.product(range(M), repeat=3):
        if all(v % p == 0 for v in abc):
            continue
        total += 1
        if any(v == 0 or (v % p == 0 and (v // p) % p == 0) for v in abc):
            unstable += 1
            continue
        if hilbert(Fraction(abc[0], abc[2]), Fraction(abc[1], abc[2]), p) == -1:
            stable_insoluble += 1
    lo = stable_insoluble / total
    hi = (stable_insoluble + unstable) / total

    est = sigma_empirical(diagonal_conics(), 5, 10_000, 3, seed=7)
    assert est.value - 3 * est.standard_error <= hi
    assert est.value + est.unknown_fraction + 3 * est.standard_error >= lo


def test_sigma_empirical_cubics_positive():
    est = sigma_empirical(diagonal_cubics(), 7, 10_000, 4, seed=7)
    assert est.value > 0
    assert est.value > 3 * est.standard_error
    assert est.unknown_fraction < 0.01


def test_sigma_empirical_deterministic():
    a = sigma_empirical(diagonal_conics(), 3, 2000, 4, seed=5)
    b = sigma_empirical(diagonal_conics(), 3, 2000, 4, seed=5)
    assert a == b


def test_sigma_empirical_frozen():
    # counts recorded from the per-disk scalar theta loop this replaced
    cases = [(diagonal_conics(), 2, 6, 1124, 461), (diagonal_cubics(), 3, 4, 81, 385)]
    for fam, p, depth, insoluble, unknown in cases:
        q = insoluble / 3000
        assert sigma_empirical(fam, p, 3000, depth, seed=1) == DiskDensityEstimate(
            p, depth, 3000, q, math.sqrt(q * (1 - q) / 3000), unknown / 3000
        )


def test_sigma_empirical_rejections():
    fam = diagonal_conics()
    with pytest.raises(ValueError):
        sigma_empirical(fam, 5, 0, 3)
    with pytest.raises(ValueError):
        sigma_empirical(fam, 5, 10, 0)
    with pytest.raises(ValueError):
        sigma_empirical(fam, 6, 10, 2)


def test_sigma_empirical_refuses_a_disk_modulus_past_2_to_the_62():
    # the fourth root of 2^62 (about 46341) lies between the primes 46337 and 46349
    assert families.disk_modulus(46337, 4) == 46337**4 < 1 << 62
    with pytest.raises(SizeRefused, match=r"46349\^4"):
        sigma_empirical(diagonal_cubics(), 46349, 10, 4)


def test_sigma_empirical_refuses_disks_above_physical_memory():
    # 10^13 disks of four int64 coordinates take about 320 TB; the check
    # comes before any draw
    fam = diagonal_cubics()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            sigma_empirical(fam, 5, 10**13, 4)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_two_adic_density_exact_value_and_mc_cross_check():
    d = conic_insoluble_density(2)
    assert d == Fraction(5, 12)
    est = sigma_empirical(diagonal_conics(), 2, 20_000, 14, seed=11)
    assert abs(est.value - float(d)) <= 3 * est.standard_error
    assert est.unknown_fraction < 0.01


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_conics_small():
    rep = calibrate_A(diagonal_conics(), 3, 10)
    assert rep.A == 2
    assert set(rep.exception_counts) == {2}
    assert rep.exception_counts[2] > 0
    assert not rep.undecided
    pt, p = rep.witnesses[0]
    assert p == 2
    a, b, c = pt.coords
    assert a * b * c % 2 != 0
    assert diagonal_conics().theta(pt, 2)


def test_calibrate_conics_exhaustive():
    rep = calibrate_A(diagonal_conics(), 50, 100)
    assert rep.A == 2
    assert rep.exception_counts == {2: 118519}
    assert len(rep.witnesses) == 64  # capped sample of a large exception set
    assert [(pt.coords, p) for pt, p in rep.witnesses[:3]] == [
        ((1, -99, -97), 2),
        ((1, -99, -93), 2),
        ((1, -99, -89), 2),
    ]
    assert not rep.undecided


def test_calibrate_cubics():
    rep = calibrate_A(diagonal_cubics(), 20, 30)
    assert rep.exception_counts == {}
    assert rep.A == 1
    assert not rep.undecided


def test_calibrate_rejections():
    with pytest.raises(ValueError):
        calibrate_A(diagonal_conics(), 1, 10)
    with pytest.raises(ValueError):
        calibrate_A(diagonal_conics(), 5, 0)


# ---------------------------------------------------------------------------
# vectorized engines


def test_conic_grid_matches_scalar():
    rng = np.random.default_rng(5)
    coeffs = rng.integers(-200, 201, size=(3000, 3))
    coeffs = coeffs[(coeffs != 0).all(axis=1)]
    # a prime above the row count takes the Jacobi route instead of the table;
    # 1_000_003 = 3 and 1_000_033 = 1 (mod 4) read the two odd-prime verdict tables
    bigs = (1_000_003, 1_000_033)
    divisible = np.array([
        row
        for q in bigs
        for row in ([3 * q, 5, 7], [-q, 2, 11], [q * q, -3, 5], [6, q, -q], [2, 3, -5 * q])
    ])
    coeffs = np.concatenate([coeffs, divisible])
    for p in (2, 3, 5, 7, 13, 97, *bigs, INF):
        grid = conic_insoluble_grid(coeffs, p)
        for g, row in zip(grid.tolist(), coeffs.tolist()):
            assert g == (not conic_soluble(*row, p)), (row, p)


def _bounded_rows(p, width, seed):
    # 1500 rows of nonzero entries in [-60, 60], the first holding +-p and
    # +-p^2 where they fit under 100, so 2m + 1 <= 201 stays below the row count
    rng = np.random.default_rng(seed)
    rows = rng.integers(-60, 61, size=(1500, width))
    rows[rows == 0] = 1
    powers = [v for v in (p, -p, p * p, -p * p) if abs(v) <= 100]
    rows[0, : len(powers[:width])] = powers[:width]
    return rows


# a prime far above every entry: with it the rows are too wide for a value table
_WIDE = 1_000_000_007


def _strip_sizes(monkeypatch):
    sizes = []
    strip = families._strip

    def spy(col, p):
        sizes.append(np.size(col))
        return strip(col, p)

    monkeypatch.setattr(families, "_strip", spy)
    return sizes


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 97])
def test_conic_digit_route_matches_formula_route(p, monkeypatch):
    rows = _bounded_rows(p, 3, seed=p)
    sizes = _strip_sizes(monkeypatch)
    digit = conic_insoluble_grid(rows, p)
    # the digit route strips the values in [-m, m], never a column
    assert sizes and max(sizes) < len(rows)
    formula = conic_insoluble_grid(np.concatenate([rows, [[1, 1, _WIDE]]]), p)[:-1]
    assert max(sizes) == len(rows) + 1
    assert digit.dtype == bool and digit.tolist() == formula.tolist()
    for row, g in zip(rows[:200].tolist(), digit[:200].tolist()):
        assert g == (not conic_soluble(*row, p)), (row, p)
    rows[7, 1] = 0
    with pytest.raises(ValueError):
        conic_insoluble_grid(rows, p)


@pytest.mark.parametrize("p", [2, 3, 7, 13, 31])
def test_cubic_digit_route_matches_formula_route(p, monkeypatch):
    rows = _bounded_rows(p, 4, seed=100 + p)
    sizes = _strip_sizes(monkeypatch)
    digit = CubicDecider(p).decide_grid(rows)
    assert sizes and max(sizes) < len(rows)
    wide = np.concatenate([rows, [[1, 1, 1, _WIDE]]])
    formula = CubicDecider(p).decide_grid(wide)[:-1]
    assert max(sizes) == len(rows) + 1
    assert digit.dtype == np.int8 and digit.tolist() == formula.tolist()
    dec = CubicDecider(p)
    rank = {Solubility.SOLUBLE: 0, Solubility.INSOLUBLE: 1, Solubility.UNKNOWN: 2}
    assert digit.tolist() == [rank[dec.decide(row)] for row in rows.tolist()]
    rows[7, 3] = 0
    with pytest.raises(ValueError):
        CubicDecider(p).decide_grid(rows)


def test_cubic_verdicts_run_no_search(monkeypatch):
    # the verdict tables are pinned: building every class of decider runs no
    # p-adic search
    searched = []
    search = localsolve.padic_point_search

    def spy(form, p, **kwargs):
        searched.append((form, p))
        return search(form, p, **kwargs)

    def decide_all(primes):
        # every decider's grid and scalar verdicts
        out = []
        for p in primes:
            dec = CubicDecider(p)
            rows = _bounded_rows(p, 4, seed=3)
            out.append(dec.decide_grid(rows).tolist())
            assert dec.decide_grid(rows[::-1]).tolist()[::-1] == out[-1]
            for row in rows[:50].tolist():
                dec.decide(row)
        return out

    monkeypatch.setattr(localsolve, "padic_point_search", spy)
    families._cubic_verdicts.cache_clear()
    primes = (2, 3, 5, 7, 13, 19, 31)
    first = decide_all(primes)
    assert decide_all(primes) == first
    assert not searched
    # a search imported by name would escape the spy
    assert not hasattr(families, "padic_point_search")


def _canonical_codes_by_sort():
    # each (s, t) move sorted row by row with np.sort and packed; the least wins
    digits = families._code_digits(9, 4)
    moved = [
        np.sort((digits // 3 + s) % 3 * 3 + (digits % 3 + t) % 3, axis=1) @ 9 ** np.arange(4)
        for s in range(3)
        for t in range(3)
    ]
    return np.min(moved, axis=0)


def test_canonical_digit_codes_match_sort():
    assert np.array_equal(families._canonical_digit_codes(), _canonical_codes_by_sort())


def test_cubic_decider_cache_is_bounded():
    maxsize = families._cubic_decider.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 10**4


def test_cube_class_table_matches_scalar():
    # all the units at once take each residue's class once; one unit at a
    # time takes its own power
    for p in (2, 3, 5, 7, 13, 31, 97):
        units = [u for u in range(-3 * max(p, 9), 3 * max(p, 9)) if u % p]
        want = [cube_class(u, p) for u in units]
        classes = families._cube_classes(np.array(units), p)
        assert classes.dtype == np.int8 and classes.tolist() == want
        assert [int(families._cube_classes(np.array([u]), p)[0]) for u in units] == want


@pytest.mark.parametrize("p", [1009, 10009, 99991])
def test_cube_class_table_matches_the_power_formula(p):
    # the cubes u^3 of the units are class 0, their products with the
    # smallest non-cube class 1, and the rest class 2
    u = np.arange(1, p, dtype=np.int64)
    cubes = u * u % p * u % p
    want = np.full(p, 2, dtype=np.int8)
    want[cubes] = 0
    want[cubes * families._smallest_noncube(p) % p] = 1
    classes = families._cube_classes(np.arange(1, p), p)
    assert classes.dtype == np.int8 and classes.tolist() == want[1:].tolist()


def test_cube_class_table_refuses_a_prime_past_int64_squares():
    # at p = 10^12 + 39 the unit column alone would take 7.28 TiB, and u * u
    # would wrap; the refusal comes before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(SizeRefused, match="int64"):
            CubicDecider(1000000000039)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_cubic_decider_at_a_large_prime_builds_no_table():
    # 1000003 = 1 (mod 3): a few rows' unit classes come by powers, and
    # nothing is allocated per residue (a p-entry table took 33 MB)
    rows = np.random.default_rng(30).integers(1, 10**6, size=(6, 4))
    rows[0] *= 1000003
    tracemalloc.start()
    try:
        dec = CubicDecider(1000003)
        grid = dec.decide_grid(rows)
        assert tracemalloc.get_traced_memory()[1] < 2 << 20
    finally:
        tracemalloc.stop()
    rank = {Solubility.SOLUBLE: 0, Solubility.INSOLUBLE: 1, Solubility.UNKNOWN: 2}
    assert grid.tolist() == [rank[dec.decide(row)] for row in rows.tolist()]


def _scalar_verdicts(fam, rows, places):
    # theta per row at its place, as the grids' int8: 2 for undecided
    out = []
    for row, place in zip(rows.tolist(), places):
        try:
            out.append(int(fam.theta(row, place)))
        except Undecided:
            out.append(2)
    return out


@pytest.mark.parametrize("fam", [diagonal_conics(), diagonal_cubics()], ids=lambda f: f.name)
def test_theta_grid_matches_scalar_theta(fam):
    rng = np.random.default_rng(21)
    rows = rng.integers(-60, 61, size=(120, fam.n + 1))
    rows = rows[(rows != 0).all(axis=1)]
    for v in (2, 3, 5, 7, 13, INF):
        grid = fam.digit_model(v).grid(rows)
        assert grid.dtype == np.int8
        assert grid.tolist() == _scalar_verdicts(fam, rows, [v] * len(rows)), v
    # theta_grid: one prime > A per row, dividing a coordinate where the row has one
    per_row = []
    for row in rows.tolist():
        divs = sorted({q for x in row for q in factorize(x) if q > fam.A})
        per_row.append(divs[len(per_row) % len(divs)] if divs else 7)
    grid = fam.theta_grid(rows, np.array(per_row, np.int64))
    assert grid.dtype == np.int8
    assert grid.tolist() == _scalar_verdicts(fam, rows, per_row)


@pytest.mark.parametrize(
    "fam, places",
    [(diagonal_conics(), (2, 3, 5, INF)), (diagonal_cubics(), (2, 3, 7, INF))],
    ids=["conics", "cubics"],
)
def test_code_and_decoder_are_inverse(fam, places):
    for v in places:
        model = fam.digit_model(v)
        width = fam.n + 1
        rows = families._code_digits(model.base, width)
        assert rows.shape == (model.base**width, width)
        assert ((rows >= 0) & (rows < model.base)).all()
        codes = model.code(rows.T)
        assert codes.dtype == np.min_scalar_type(model.base**width - 1)
        assert codes.tolist() == list(range(model.base**width)), v


@pytest.mark.parametrize("fam", [diagonal_conics(), diagonal_cubics()], ids=lambda f: f.name)
def test_grid_value_table_and_column_routes_agree(fam):
    # 600 rows of entries in [-40, 40] take the value table (81 <= 600);
    # one row at a time, 2m + 1 > 1 sends each through its columns
    rng = np.random.default_rng(17)
    rows = rng.integers(-40, 41, size=(600, fam.n + 1))
    rows = rows[(rows != 0).all(axis=1)]
    for v in (2, 3, 5, 7, 13, INF):
        model = fam.digit_model(v)
        by_table = model.grid(rows)
        by_column = np.concatenate([model.grid(row[None]) for row in rows])
        assert by_table.tolist() == by_column.tolist(), v


@pytest.mark.parametrize("fam", [diagonal_conics(), diagonal_cubics()], ids=lambda f: f.name)
def test_real_place_model_reads_theta_on_every_sign_pattern(fam):
    model = fam.digit_model(INF)
    assert (model.base, model.masses, model.margin) == (2, (Fraction(1, 2),) * 2, 0)
    signs = np.array(list(itertools.product((1, -1), repeat=fam.n + 1)))
    codes = (signs < 0) @ 2 ** np.arange(fam.n + 1)
    assert sorted(codes.tolist()) == list(range(2 ** (fam.n + 1)))
    # magnitudes do not matter, only signs
    rows = signs * np.arange(1, fam.n + 2) * 7
    want = _scalar_verdicts(fam, rows, [INF] * len(rows))
    assert model.verdicts(codes).tolist() == want
    assert model.grid(rows).tolist() == want
    with pytest.raises(ValueError):
        model.grid(np.array([[1] * fam.n + [0]]))


def test_grids_reject_zero_entries():
    for place in (5, INF):
        with pytest.raises(ValueError):
            conic_insoluble_grid(np.array([[1, 0, 3]]), place)
    with pytest.raises(ValueError):
        CubicDecider(5).decide_grid(np.array([[1, 0, 2, 3]]))


def test_cubic_grid_matches_direct_engine():
    rng = np.random.default_rng(9)
    rank = {Solubility.SOLUBLE: 0, Solubility.INSOLUBLE: 1, Solubility.UNKNOWN: 2}
    for p in (2, 3, 7, 13):
        rows = rng.integers(-60, 61, size=(50, 4))
        rows = rows[(rows != 0).all(axis=1)]
        dec = CubicDecider(p)
        grid = dec.decide_grid(rows)
        for row, g in zip(rows.tolist(), grid.tolist()):
            form = HomogeneousForm.diagonal(row, 3)
            assert rank[padic_point_search(form, p).status] == g, (row, p)


def test_cubic_scalar_matches_grid():
    rng = np.random.default_rng(12)
    rows = rng.integers(-40, 41, size=(40, 4))
    rows = rows[(rows != 0).all(axis=1)]
    dec = CubicDecider(7)
    grid = dec.decide_grid(rows)
    rank = {Solubility.SOLUBLE: 0, Solubility.INSOLUBLE: 1, Solubility.UNKNOWN: 2}
    for row, g in zip(rows.tolist(), grid.tolist()):
        assert rank[dec.decide(row)] == g


def test_cubic_decider_validation():
    with pytest.raises(ValueError):
        CubicDecider(6)
    with pytest.raises(ValueError):
        CubicDecider(7).decide((1, 0, 2, 3))


# ---------------------------------------------------------------------------
# cube classes


def test_cube_class_frozen_mod_7():
    assert [cube_class(u, 7) for u in (1, 6)] == [0, 0]
    assert cube_class(2, 7) == 1 and cube_class(4, 7) == 2


def test_cube_class_mod_9_table():
    assert [cube_class(u, 3) for u in (1, 8, 2, 7, 4, 5)] == [0, 0, 1, 1, 2, 2]


def test_cube_class_multiplicative():
    for p in (3, 7, 13, 31):
        mod = 9 if p == 3 else p
        units = [u for u in range(1, 3 * mod) if u % p != 0][:20]
        for u in units:
            for v in units:
                assert cube_class(u * v, p) == (cube_class(u, p) + cube_class(v, p)) % 3


def test_cube_class_trivial_when_p_is_2_mod_3():
    for p in (2, 5, 11, 17):
        for u in range(1, p):
            assert cube_class(u, p) == 0


def test_cube_class_rejects_non_unit():
    with pytest.raises(ValueError):
        cube_class(14, 7)


def test_cube_class_rejects_a_composite_modulus():
    for p in (1, 4, 8, 10, 49):
        with pytest.raises(ValueError, match="prime"):
            cube_class(2, p)
