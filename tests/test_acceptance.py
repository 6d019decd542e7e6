"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test name is the pass/fail line for its criterion under `pytest -v`.
The limit laws live at heights far beyond any machine, so the distributional
criteria check exact identities, dual-computation agreement, and monotone
trends at the largest feasible bounds; every tolerance below is the one the
guarantee states, not a loosened stand-in.

Budget: the full gate is minutes-scale; the two large scans (criteria 8-10)
dominate and are shared across criteria through module fixtures.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fibstat.arith import factorize, primes_up_to
from fibstat.cli import main as cli_main
from fibstat.families import (
    CubicDecider,
    conic_sigma_formula,
    cubic_criterion,
    diagonal_conics,
    diagonal_cubics,
    omega_formula_conics,
    omega_pi,
    sigma_exact,
)
from fibstat.grouptheory import delta, delta_total, load_bundled_actions
from fibstat.localsolve import (
    HomogeneousForm,
    Solubility,
    conic_soluble,
    hilbert,
    hilbert_reciprocity_check,
    padic_point_search,
)
from fibstat.projective import (
    cn,
    count_congruence,
    count_points,
    enumerate_points,
    proj_size,
    residue_classes,
)
from fibstat.stats import (
    classic_omega_set,
    cubic_density_table,
    gaussian_distance,
    moments,
    record_set,
    sample_records,
    sigma_partial_sums,
    tau_histogram,
    tau_limit_prediction,
)

CONICS = diagonal_conics()
CUBICS = diagonal_cubics()

EKAC_SAMPLE = 60_000
EKAC_SEED = 0
EKAC_THREADS = 4


# ---------------------------------------------------------------------------
# shared expensive computations


@pytest.fixture(scope="module")
def conic_samples():
    return {
        B: sample_records(CONICS, B, EKAC_SAMPLE, EKAC_SEED, threads=EKAC_THREADS)
        for B in (10**3, 10**4, 10**5)
    }


@pytest.fixture(scope="module")
def cubic_scan_40():
    return record_set(CUBICS, 40)


@pytest.fixture(scope="module")
def cubic_scan_60():
    return record_set(CUBICS, 60)


@pytest.fixture(scope="module")
def cubic_densities():
    return cubic_density_table(100, sample_size=EKAC_SAMPLE, seed=11)


@pytest.fixture(scope="module")
def baseline_set():
    return classic_omega_set(10**7)


def studentized_second_moment(records, B, Delta, centering):
    """M2 / (M2 - M1^2): the variance-normalized second moment, equal to 1
    exactly when the centering is unbiased."""
    m1 = moments(records, B, Delta, 1, centering=centering).value
    m2 = moments(records, B, Delta, 2, centering=centering).value
    return m2 / (m2 - m1 * m1)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_point_count_asymptotic():
    # n = 2, B = 2000: count / B^3 within 1% of the density constant; < 60 s
    start = time.monotonic()
    B = 2000
    count = count_points(2, B)
    # the closed form must agree with the streaming enumerator where feasible
    assert count_points(2, 30) == sum(1 for _ in enumerate_points(2, 30))
    elapsed = time.monotonic() - start
    target = cn(2)
    assert abs(count / B**3 - target) / target < 0.01
    assert elapsed < 60.0


def test_criterion_02_congruence_counting():
    # per-class relative error < 5% at B = 1000; class partition exact
    B = 1000
    total = count_points(2, B)
    for p in (3, 5, 7):
        classes = residue_classes(2, p)
        assert len(classes) == proj_size(2, p)
        class_sum = 0
        for cls in classes:
            cnt, main, rel = count_congruence(2, B, p, lambda c, cls=cls: c == cls)
            assert rel < 0.05
            class_sum += cnt
        assert class_sum == total


def test_criterion_03_hilbert_reciprocity():
    # 10^4 random pairs: product of symbols over all relevant places is +1
    rng = np.random.default_rng(271828)
    checked = 0
    while checked < 10_000:
        a = int(rng.integers(-500, 501))
        b = int(rng.integers(-500, 501))
        if a == 0 or b == 0:
            continue
        assert hilbert_reciprocity_check(a, b)
        checked += 1


def test_criterion_04_formula_vs_engine_exhaustive():
    # every admissible (a, b, c): the closed form equals a direct scan over
    # the finite places 2 and p | abc (the formula's S excludes infinity)
    values = [
        v
        for v in range(-199, 200)
        if v != 0 and v % 4 == 1 and all(e == 1 for e in factorize(v).values())
    ]
    supports = {v: set(factorize(v)) for v in values}
    triples = 0
    for a in values:
        for b in values:
            if math.gcd(a, b) != 1:
                continue
            for c in values:
                if math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
                    continue
                places = {2} | supports[a] | supports[b] | supports[c]
                direct = sum(1 for p in places if not conic_soluble(a, b, c, p))
                assert omega_formula_conics(a, b, c) == direct, (a, b, c)
                triples += 1
    assert triples > 10_000


def test_criterion_05_parity_law():
    # S empty: omega counts every insoluble place and is always even
    rs = record_set(CONICS, 200, S=())
    assert (rs.omegas % 2 == 0).all()
    assert len(rs.omegas) > 10**6


def test_criterion_06_sigma_dual_computation():
    for p in primes_up_to(97):
        p = int(p)
        if p == 2:
            continue
        s = sigma_exact(CONICS, p)
        assert s == conic_sigma_formula(p)
        assert s <= Fraction(3, p)


def test_criterion_07_partial_sum_slope_and_beta():
    entries = {int(p): conic_sigma_formula(int(p)) for p in primes_up_to(10**5) if p > 2}
    fit = sigma_partial_sums(entries, Fraction(3, 2))
    assert abs(fit.slope - 1.5) / 1.5 < 0.15
    cutoffs = sorted(fit.partial_sums)
    upper = cutoffs[len(cutoffs) // 2 :]
    betas = [fit.partial_sums[x] - 1.5 * math.log(math.log(x)) for x in upper]
    assert max(betas) - min(betas) <= 0.05


def test_criterion_08_erdos_kac_trend(conic_samples):
    ks = {
        B: gaussian_distance(conic_samples[B], Fraction(3, 2), centering="empirical")
        for B in conic_samples
    }
    assert ks[10**3] > ks[10**4] > ks[10**5]
    B = 10**5
    m1 = moments(conic_samples[B], B, Fraction(3, 2), 1, centering="empirical").value
    assert abs(m1) <= 0.1
    m2s = studentized_second_moment(conic_samples[B], B, Fraction(3, 2), "empirical")
    assert abs(m2s - 1.0) <= 0.25


def test_criterion_09_classic_baseline(baseline_set):
    m2s = studentized_second_moment(baseline_set, 10**7, 1, "empirical")
    assert abs(m2s - 1.0) <= 0.10
    ks = {
        limit: gaussian_distance(
            baseline_set.truncate_height(limit), 1, centering="empirical"
        )
        for limit in (10**5, 10**6, 10**7)
    }
    assert ks[10**5] > ks[10**6] > ks[10**7]


def test_criterion_10_discrete_limit_law(cubic_scan_40, cubic_scan_60, cubic_densities):
    th = tau_histogram(cubic_scan_40)
    # partition: tau masses + singular + tainted fractions sum to 1 exactly
    assert (
        sum(th.masses.values())
        + Fraction(th.singular_count + th.tainted_count, th.point_count)
        == 1
    )
    assert sum(th.masses.values()) == Fraction(
        cubic_scan_40.untainted_count, th.point_count
    )
    assert th.tainted_count / th.point_count < 0.001
    assert th.masses.get(1, Fraction(0)) > 0
    tail = [th.masses.get(j, Fraction(0)) for j in (1, 2, 3, 4)]
    assert all(a > b or a == b == 0 for a, b in zip(tail, tail[1:]))
    # the limit prediction against the largest feasible exhaustive scan,
    # compared on smooth untainted fibres (the model's sample space)
    pred = tau_limit_prediction(CUBICS, 1, 100, cubic_densities)
    th60 = tau_histogram(cubic_scan_60)
    scan_mass = th60.counts.get(1, 0) / cubic_scan_60.untainted_count
    scan_se = math.sqrt(scan_mass * (1 - scan_mass) / cubic_scan_60.untainted_count)
    combined = math.sqrt(pred.std_error**2 + scan_se**2)
    assert abs(pred.value - scan_mass) <= 3 * combined


def test_criterion_11_cubic_criterion_soundness():
    # vectors built to satisfy the valuation/cube-class criterion must be
    # independently proved insoluble by the search engine
    rng = np.random.default_rng(424242)
    for p in (7, 13, 19, 31):
        found = 0
        while found < 200:
            a0, a1, w2, w3 = (int(x) for x in rng.integers(1, p, size=4))
            coeffs = [a0, a1, p * w2, p * w3]
            order = rng.permutation(4)
            coeffs = [coeffs[i] for i in order]
            if not cubic_criterion(coeffs, p):
                continue
            verdict = padic_point_search(HomogeneousForm.diagonal(coeffs, 3), p)
            assert verdict.status is Solubility.INSOLUBLE, (coeffs, p, verdict)
            found += 1


def test_criterion_12_moment_identity(cubic_scan_40):
    from fibstat.stats import n_moments

    for rs in (cubic_scan_40, record_set(CUBICS, 6)):
        th = tau_histogram(rs)
        for r in (1, 2, 3):
            via_hist = sum(Fraction(j**r) * m for j, m in th.masses.items())
            via_hist *= Fraction(th.point_count, rs.untainted_count)
            assert n_moments(rs, r) == via_hist


def test_criterion_13_delta_calculator():
    examples = load_bundled_actions("delta_examples.txt")
    got = sorted(delta(a) for a in examples.values())
    assert got == [Fraction(0), Fraction(1, 2), Fraction(1)]
    conic_action = load_bundled_actions("conic_action.txt")
    assert delta_total(conic_action.values()) == Fraction(3, 2)
    assert CONICS.Delta == Fraction(3, 2)


def test_criterion_14_cli_determinism(tmp_path):
    bodies = []
    for threads, name in ((1, "t1"), (4, "t4")):
        code = cli_main([
            "ekac", "--B", "1000", "--sample-size", "4000", "--seed", "99",
            "--threads", str(threads), "--output", str(tmp_path / name),
        ])
        assert code == 0
        bodies.append((tmp_path / f"{name}.ekac.csv").read_bytes())
    assert bodies[0] == bodies[1]
    # and a repeat of the first configuration reproduces it byte for byte
    code = cli_main([
        "ekac", "--B", "1000", "--sample-size", "4000", "--seed", "99",
        "--threads", "1", "--output", str(tmp_path / "again"),
    ])
    assert code == 0
    assert (tmp_path / "again.ekac.csv").read_bytes() == bodies[0]
