"""Symbol layer and p-adic search engine tests.

The load-bearing oracles here are independent of the code under test:

* a brute-force residue search over primitive vectors mod p^K (sound in both
  directions: no residue zero proves insolubility, a Hensel-margin zero
  proves solubility);
* textbook Hilbert symbol values and the symbol axioms (symmetry,
  bilinearity, square invariance, (a,-a) = 1, reciprocity);
* exhaustive residue sets for power-residue checks.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import legendre_symbol

from fibstat import arith, localsolve
from fibstat.arith import factorize, is_prime, jacobi, prime_support, primes_up_to, valuation
from fibstat.families import (
    _RANKS,
    CubicDecider,
    _canonical_digit_codes,
    _smallest_noncube,
    cubic_criterion,
    family_by_name,
)
from fibstat.localsolve import (
    INF,
    HomogeneousForm,
    Solubility,
    SolubilityVerdict,
    conic_soluble,
    hilbert,
    hilbert_reciprocity_check,
    is_kth_power_residue,
    legendre,
    padic_point_search,
    verify_certificate,
)

# ---------------------------------------------------------------------------
# independent brute-force oracle


def brute_local_solubility(coeffs, degree, p, K):
    """Decide solubility of a diagonal form over Q_p by residue exhaustion.

    Returns True / False / None (undecided at this K).  Sound either way:
    a primitive Q_p-zero would reduce to a primitive zero mod p^K, and a
    residue zero with v_p(F) > 2 v_p(dF_i) lifts by Hensel's lemma.
    """
    M = p**K
    m = len(coeffs)
    form = HomogeneousForm.diagonal(coeffs, degree)
    partials = [form.partial(i) for i in range(m)]
    found_zero = False
    for lead in range(M):
        tail = np.indices((M,) * (m - 1)).reshape(m - 1, -1)
        rows = np.column_stack([np.full(tail.shape[1], lead, dtype=np.int64), tail.T])
        rows = rows[(rows % p != 0).any(axis=1)]
        vals = np.zeros(rows.shape[0], dtype=np.int64)
        for i, c in enumerate(coeffs):
            vals = (vals + (c % M) * pow_mod(rows[:, i], degree, M)) % M
        zeros = rows[vals == 0]
        if zeros.shape[0] == 0:
            continue
        found_zero = True
        for row in zeros:
            vec = tuple(int(x) for x in row)
            fval = form.evaluate(vec)
            vF = valuation(fval, p) if fval else K  # capped at K by construction
            for i in range(m):
                if partials[i] is None:
                    continue
                dval = partials[i].evaluate(vec)
                if dval == 0:
                    continue
                vd = valuation(dval, p)
                if vd < K and min(vF, 2 * vd + 1) > 2 * vd:
                    return True
    return None if found_zero else False


def pow_mod(x, e, M):
    out = np.ones_like(x)
    for _ in range(e):
        out = out * (x % M) % M
    return out


def brute_decide(coeffs, degree, p, depths):
    for K in depths:
        got = brute_local_solubility(coeffs, degree, p, K)
        if got is not None:
            return got
    return None


# ---------------------------------------------------------------------------
# legendre and power residues


def test_legendre_matches_square_sets():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
        assert legendre(0, p) == 0
        assert legendre(p * 5, p) == 0


def test_squares_mod_7_frozen():
    assert {a for a in range(1, 7) if legendre(a, 7) == 1} == {1, 2, 4}


def test_legendre_multiplicative():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19])
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


# odd primes up to about 2^61, small ones included
_ODD_PRIMES = st.integers(2, 2**61).map(sympy.nextprime)


@settings(max_examples=300, deadline=None)
@given(_ODD_PRIMES, st.integers(-2**70, 2**70), st.booleans())
def test_legendre_matches_sympy_at_large_primes(p, a, multiple):
    if multiple:
        a *= p
    assert legendre(a, p) == legendre_symbol(a, p)


def test_legendre_rejects_two():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_cubes_mod_7_frozen():
    cubes = {a for a in range(1, 7) if is_kth_power_residue(a, 7, 3)}
    assert cubes == {1, 6}
    assert cubes == {x**3 % 7 for x in range(1, 7)}


def test_cubes_mod_13_match_exhaustion():
    cubes = {x**3 % 13 for x in range(1, 13)}
    for a in range(1, 13):
        assert is_kth_power_residue(a, 13, 3) == (a in cubes)


def test_all_units_are_cubes_when_p_is_2_mod_3():
    for p in [2, 5, 11, 17, 23, 29]:
        for a in range(1, p):
            assert is_kth_power_residue(a, p, 3)


def test_square_residue_agrees_with_legendre():
    for p in [3, 7, 11, 19]:
        for a in range(1, p):
            assert is_kth_power_residue(a, p, 2) == (legendre(a, p) == 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 2**61 - 1).map(sympy.nextprime),
    st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=8),
    st.integers(-3, 3),
)
def test_vectorized_jacobi_matches_legendre(p, values, k):
    # negative entries, multiples of p and p itself next to arbitrary ones
    a = values + [k * p, k * p - 1, p - 1, -values[0]]
    assert jacobi(np.array(a), p).tolist() == [legendre(x, p) for x in a]


def test_vectorized_jacobi_composite_moduli():
    a = np.arange(-60, 61)
    for n in range(1, 100, 2):
        assert jacobi(a, n).tolist() == [sympy.jacobi_symbol(int(x), n) for x in a]
    with pytest.raises(ValueError):
        jacobi(np.array([3]), 10)


def test_prime_support_matches_factorize():
    rng = np.random.default_rng(3)
    limit = 1 << 20
    values = np.concatenate([
        rng.integers(-(10**6), 10**6, 400),
        rng.integers(limit, 1 << 40, 30),
        [1, -1, limit, limit + 1, -limit - 7, 2**40 * 3, 1000003 * 999983],
    ])
    values = values[values != 0]
    index, prime = prime_support(values)
    assert (np.diff(index) >= 0).all()
    for k, v in enumerate(values.tolist()):
        assert prime[index == k].tolist() == sorted(factorize(v)), v
    with pytest.raises(ValueError):
        prime_support(np.array([3, 0]))


def test_prime_support_grows_the_spf_table(monkeypatch):
    limit = arith._SPF_CACHE_LIMIT
    monkeypatch.setattr(arith, "_spf_cache", None)
    small = np.array([2, 3, 97, 360, -1001, 4095])
    index, prime = prime_support(small)
    # sized to the next power of two above the largest value, not to the limit
    assert len(arith._spf_cache) == 4096 + 1
    for k, v in enumerate(small.tolist()):
        assert prime[index == k].tolist() == sorted(factorize(v)), v
    near = np.array([limit, limit - 1, -(limit - 3), 999983, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19])
    index, prime = prime_support(near)
    assert len(arith._spf_cache) == limit + 1
    for k, v in enumerate(near.tolist()):
        assert prime[index == k].tolist() == sorted(factorize(v)), v


def test_primes_up_to_refuses_a_sieve_above_physical_memory():
    with pytest.raises(ValueError, match="physical memory"):
        primes_up_to(10**13)
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_raises_past_its_proven_bound():
    bound = 318_665_857_834_031_151_167_461
    below = sympy.prevprime(bound)
    assert is_prime(below) and not is_prime(below + 2)
    # a strong pseudoprime to every prime base up to 37
    pseudo = 1287836182261 * 2575672364521
    for n in (bound, pseudo, sympy.nextprime(bound)):
        with pytest.raises(ValueError):
            is_prime(n)


_PROVEN_BOUND = 318_665_857_834_031_151_167_461


@settings(max_examples=60, deadline=None)
@given(st.integers(2**10, 2**26).map(sympy.nextprime), st.sampled_from([2, 3]), st.booleans())
def test_factorize_prime_powers_match_sympy(p, k, negate):
    # squares and cubes above the smallest-prime-factor table reach rho;
    # cubes of primes up to 2^26 stay below is_prime's proven bound
    n = (-1) ** negate * p**k
    assert factorize(n) == sympy.factorint(abs(n)) == {p: k}
    assert not is_prime(abs(n))


@settings(max_examples=4, deadline=None)
@given(st.integers(2**31 - 2**24, 2**31 + 2**24).map(sympy.nextprime),
       st.integers(2**31 - 2**24, 2**31 + 2**24).map(sympy.nextprime))
def test_factorize_products_of_two_primes_near_2_31_match_sympy(p, q):
    # about 0.2 s of rho each, hence the few examples
    n = p * q
    assert factorize(n) == sympy.factorint(n)
    assert not is_prime(n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(2**64, _PROVEN_BOUND - 1),
                 st.integers(2**64, _PROVEN_BOUND >> 1).map(sympy.nextprime)))
def test_is_prime_matches_sympy_above_2_64(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2**64, (_PROVEN_BOUND >> 12) - 2**20).map(sympy.nextprime),
       st.integers(1, 2**12))
def test_factorize_above_2_64_matches_sympy(p, m):
    # a prime above 2^64 times a cofactor up to 2^12
    n = p * m
    assert is_prime(p) and n < _PROVEN_BOUND
    assert factorize(n) == sympy.factorint(n)


# ---------------------------------------------------------------------------
# hilbert symbol


def test_hilbert_frozen_textbook_values():
    assert hilbert(-1, -1, INF) == -1
    assert hilbert(-1, -1, 2) == -1
    assert hilbert(-1, -1, 3) == 1
    assert hilbert(-1, -1, 7) == 1
    assert hilbert(3, 3, 3) == -1
    assert hilbert(2, 3, 3) == -1
    assert hilbert(5, 5, 5) == 1
    assert hilbert(-1, 3, 2) == -1
    # (2, b)_2 = 1 exactly when b = +-1 mod 8
    for b in [1, 3, 5, 7, 9, 11, 13, 15]:
        assert hilbert(2, b, 2) == (1 if b % 8 in (1, 7) else -1)


def test_hilbert_two_adic_formula_vs_residue_oracle():
    """Exhaust unit classes mod 8 and valuations 0/1 against brute search."""
    units = [1, 3, 5, 7, -1, -3, -5, -7]
    for u, w, va, vb in itertools.product(units, units, (0, 1), (0, 1)):
        a = u * 2**va
        b = w * 2**vb
        want = brute_decide([a, b, -1], 2, 2, (4, 5, 6, 7))
        assert want is not None, (a, b)
        assert (hilbert(a, b, 2) == 1) == want


def test_hilbert_odd_formula_vs_residue_oracle():
    rng = random.Random(17)
    for p, combos in [(3, 16), (5, 16), (7, 6)]:
        units = list(range(1, p))
        picks = [(1, 0), (rng.choice(units), 0), (rng.choice(units), 1), (p - 1, 1)]
        pairs = list(itertools.product(picks, picks))[:combos]
        for (u, va), (w, vb) in pairs:
            a = u * p**va
            b = w * p**vb
            want = brute_decide([a, b, -1], 2, p, (2, 3))
            assert want is not None, (a, b, p)
            assert (hilbert(a, b, p) == 1) == want


@settings(max_examples=300, deadline=None)
@given(_ODD_PRIMES, st.integers(-2**64, 2**64).filter(bool), st.integers(0, 3),
       st.integers(-2**64, 2**64).filter(bool), st.integers(0, 3))
def test_hilbert_matches_valuation_formula_at_large_primes(p, u, i, w, j):
    # (a, b)_p = (-1)^(alpha beta (p-1)/2) (a0|p)^beta (b0|p)^alpha for a = p^alpha a0
    a, b = u * p**i, w * p**j
    alpha, beta = sympy.multiplicity(p, a), sympy.multiplicity(p, b)
    a0, b0 = a // p**alpha, b // p**beta
    sign = -1 if alpha * beta % 2 and p % 4 == 3 else 1
    want = sign * legendre_symbol(a0, p) ** beta * legendre_symbol(b0, p) ** alpha
    assert hilbert(a, b, p) == want


def test_hilbert_symmetry_and_range():
    rng = random.Random(23)
    places = [INF, 2, 3, 5, 7, 11, 13]
    for _ in range(400):
        a = rng.choice([n for n in range(-50, 51) if n != 0])
        b = rng.choice([n for n in range(-50, 51) if n != 0])
        v = rng.choice(places)
        s = hilbert(a, b, v)
        assert s in (-1, 1)
        assert s == hilbert(b, a, v)


def test_hilbert_bilinear_in_first_argument():
    rng = random.Random(29)
    places = [INF, 2, 3, 5, 7, 11]
    for _ in range(1000):
        nz = [n for n in range(-30, 31) if n != 0]
        a1, a2, b = rng.choice(nz), rng.choice(nz), rng.choice(nz)
        v = rng.choice(places)
        assert hilbert(a1 * a2, b, v) == hilbert(a1, b, v) * hilbert(a2, b, v)


def test_hilbert_square_invariance_and_norm_identities():
    rng = random.Random(31)
    places = [INF, 2, 3, 5, 7, 13]
    for _ in range(500):
        nz = [n for n in range(-25, 26) if n != 0]
        a, b, s = rng.choice(nz), rng.choice(nz), rng.choice([n for n in nz if n])
        v = rng.choice(places)
        assert hilbert(a * s * s, b, v) == hilbert(a, b, v)
        assert hilbert(a, -a, v) == 1
        if a not in (0, 1):
            assert hilbert(a, 1 - a, v) == 1


def test_hilbert_accepts_fractions():
    assert hilbert(Fraction(1, 2), 7, 2) == hilbert(2, 7, 2)
    assert hilbert(Fraction(-9, 4), Fraction(5, 49), 5) == hilbert(-1, 5, 5)


def test_split_integer_path_matches_fraction_path():
    # an integer takes a fast path; the same value as a Fraction takes the
    # general one, and both give the valuation and the stripped unit
    for p in (2, 3, 5, 7):
        for a in [*range(-200, 0), *range(1, 200), 2**40 * 3, -(5**9) * 11, 7**12]:
            assert localsolve._split(a, p) == localsolve._split(Fraction(a), p)
            alpha, u = localsolve._split(a, p)
            assert a == p**alpha * u and u % p != 0


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        hilbert(0, 3, 5)
    with pytest.raises(ValueError):
        hilbert(3, 0, INF)


def test_hilbert_rejects_bad_place():
    with pytest.raises(ValueError):
        hilbert(1, 1, 6)


def test_reciprocity_on_seeded_rationals():
    rng = random.Random(101)
    for _ in range(1000):
        num = rng.randrange(-120, 121) or 7
        den = rng.randrange(1, 40)
        num2 = rng.randrange(-120, 121) or -5
        den2 = rng.randrange(1, 40)
        assert hilbert_reciprocity_check(Fraction(num, den), Fraction(num2, den2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-300, max_value=300).filter(lambda n: n != 0),
    st.integers(min_value=-300, max_value=300).filter(lambda n: n != 0),
)
def test_reciprocity_property(a, b):
    assert hilbert_reciprocity_check(a, b)


# ---------------------------------------------------------------------------
# conic solubility via symbols


def test_conic_soluble_matches_symbol_equivalence():
    # a x^2 + b y^2 = c z^2 is soluble over Q_v iff (a/c, b/c)_v = +1
    assert conic_soluble(1, 1, 1, INF)
    assert not conic_soluble(1, 1, -1, INF)
    assert not conic_soluble(1, 1, -1, 2)
    assert conic_soluble(1, 1, -1, 7)
    assert conic_soluble(1, 1, 2, 2)
    assert not conic_soluble(1, 1, 3, 3)
    nz = [n for n in range(-6, 7) if n != 0]
    for a, b, c in itertools.product(nz, repeat=3):
        for v in (2, 3, 5, 7, INF):
            want = hilbert(Fraction(a, c), Fraction(b, c), v) == 1
            assert conic_soluble(a, b, c, v) == want, (a, b, c, v)


def test_conic_soluble_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        conic_soluble(0, 1, 1, 3)


def test_conic_insoluble_at_finitely_many_places():
    # reciprocity forces an even, finite number of obstructed places
    rng = random.Random(7)
    for _ in range(50):
        nz = [n for n in range(-30, 31) if n != 0]
        a, b, c = rng.choice(nz), rng.choice(nz), rng.choice(nz)
        support = {2}
        for x in (a, b, c):
            support.update(p for p in range(2, abs(x) + 1) if is_prime(p) and x % p == 0)
        bad = [v for v in [INF, *sorted(support)] if not conic_soluble(a, b, c, v)]
        assert len(bad) % 2 == 0


def test_real_soluble_conics():
    # real solubility is the family's theta at the real place, negated
    def real_soluble(family, coords):
        return not family_by_name(family).theta(coords, INF)

    assert real_soluble("diagonal_conics", (1, 1, 1))
    assert real_soluble("diagonal_conics", (1, -1, 1))
    assert not real_soluble("diagonal_conics", (1, 1, -1))
    assert not real_soluble("diagonal_conics", (-2, -3, 5))
    assert real_soluble("diagonal_cubics", (4, -5, 6, 7))
    for coeffs in ((1, 1, 1), (1, -1, 1), (1, 1, -1), (-2, -3, 5)):
        assert real_soluble("diagonal_conics", coeffs) == conic_soluble(*coeffs, INF)
    with pytest.raises(ValueError):
        real_soluble("nonsense", (1, 2, 3))


# ---------------------------------------------------------------------------
# cubic criterion


def test_cubic_criterion_frozen_case():
    assert cubic_criterion((1, 2, 7, 14), 7)
    assert cubic_criterion((7, 1, 14, 2), 7)  # the criterion ignores coefficient order


def test_cubic_criterion_requires_its_shape():
    assert not cubic_criterion((1, 1, 7, 14), 7)  # -1 is a cube mod 7
    with pytest.raises(ValueError):
        cubic_criterion((1, 2, 7, 14), 5)  # 5 = 2 mod 3
    assert not cubic_criterion((1, 2, 49, 14), 7)  # v_7(y2) = 2
    assert not cubic_criterion((7, 2, 7, 14), 7)  # 7 divides three coefficients
    assert cubic_criterion((1, 2, 13 * 4, 13 * 11), 13) == (
        not is_kth_power_residue((-2) % 13, 13, 3)
        and not is_kth_power_residue((-11 * pow(4, 11, 13)) % 13, 13, 3)
    )


def test_cubic_criterion_implies_engine_insoluble():
    cases = [(1, 2, 7, 14), (1, 5, 21, 35), (2, 3, 7, 35), (1, 2, 13, 26)]
    for y in cases:
        for p in [7, 13]:
            if cubic_criterion(y, p):
                form = HomogeneousForm.diagonal(list(y), 3)
                verdict = padic_point_search(form, p)
                assert verdict.status is Solubility.INSOLUBLE


# ---------------------------------------------------------------------------
# homogeneous forms


def test_form_evaluate_and_partial():
    # x^2 y + 3 z^3 in three variables
    f = HomogeneousForm(3, 3, ((1, (2, 1, 0)), (3, (0, 0, 3))))
    assert f.evaluate((2, 5, 1)) == 4 * 5 + 3
    fx = f.partial(0)
    assert fx.evaluate((2, 5, 1)) == 2 * 2 * 5
    fy = f.partial(1)
    assert fy.evaluate((2, 5, 1)) == 4
    fz = f.partial(2)
    assert fz.evaluate((2, 5, 1)) == 9


def test_form_partial_vanishes():
    f = HomogeneousForm.diagonal([1, 1, 0], 2)
    assert f.partial(2) is None


def test_form_validation():
    with pytest.raises(ValueError):
        HomogeneousForm(2, 2, ())
    with pytest.raises(ValueError):
        HomogeneousForm(2, 2, ((0, (2, 0)),))
    with pytest.raises(ValueError):
        HomogeneousForm(2, 2, ((1, (1, 0)),))


def test_diagonal_constructor_drops_zeros():
    f = HomogeneousForm.diagonal([2, 0, -3], 2)
    assert len(f.monomials) == 2
    assert f.evaluate((1, 99, 1)) == -1


def test_coefficient_valuation_sum():
    f = HomogeneousForm.diagonal([4, 6, -8], 2)
    assert f.coefficient_valuation_sum(2) == 2 + 1 + 3


# ---------------------------------------------------------------------------
# the p-adic search engine


def test_engine_frozen_conic_insoluble_at_3():
    form = HomogeneousForm.diagonal([1, 1, -21], 2)
    verdict = padic_point_search(form, 3, depth_bound=4)
    assert verdict.status is Solubility.INSOLUBLE
    assert verdict.witness is None
    assert verdict.depth_reached <= 4


def test_engine_frozen_conic_soluble_at_2():
    form = HomogeneousForm.diagonal([1, 1, -21], 2)
    verdict = padic_point_search(form, 2)
    assert verdict.status is Solubility.SOLUBLE
    assert verify_certificate(form, 2, verdict)
    vec, level, idx = verdict.witness
    assert form.evaluate(vec) % 2**level == 0


def test_engine_frozen_cubic_insoluble_at_7():
    form = HomogeneousForm.diagonal([1, 2, 7, 14], 3)
    verdict = padic_point_search(form, 7, depth_bound=9)
    assert verdict.status is Solubility.INSOLUBLE


def test_engine_level_one_certificate():
    form = HomogeneousForm.diagonal([1, -1], 2)
    for p in [2, 3, 5, 97]:
        verdict = padic_point_search(form, p)
        assert verdict.status is Solubility.SOLUBLE
        if p != 2:
            assert verdict.depth_reached == 1
        assert verify_certificate(form, p, verdict)


def test_engine_insoluble_at_level_one():
    form = HomogeneousForm.diagonal([1, 1], 2)
    verdict = padic_point_search(form, 3)
    assert verdict.status is Solubility.INSOLUBLE
    assert verdict.depth_reached == 1


def test_engine_non_diagonal_form():
    # x y - z^2, a split quadric: soluble at every prime
    f = HomogeneousForm(3, 2, ((1, (1, 1, 0)), (-1, (0, 0, 2))))
    for p in [2, 3, 5, 11]:
        verdict = padic_point_search(f, p)
        assert verdict.status is Solubility.SOLUBLE
        assert verify_certificate(f, p, verdict)


def test_engine_honest_unknown_at_depth_one():
    # v_3(189) = 3: the chart z = 1 leaves u^2 + v^2 - 21 after dividing by 9,
    # whose only zero mod 3 needs a descent that depth 1 does not allow
    form = HomogeneousForm.diagonal([1, 1, -189], 2)
    verdict = padic_point_search(form, 3, depth_bound=1)
    assert verdict.status is Solubility.UNKNOWN
    assert padic_point_search(form, 3).status is Solubility.INSOLUBLE


def test_engine_honest_unknown_on_zero_budget():
    # v_3(189) = 3, so the surviving branch needs descent steps the budget denies
    form = HomogeneousForm.diagonal([1, 1, -189], 2)
    verdict = padic_point_search(form, 3, node_budget=0)
    assert verdict.status is Solubility.UNKNOWN
    full = padic_point_search(form, 3)
    assert full.status is Solubility.INSOLUBLE


def test_engine_budget_does_not_block_level_one_certificate():
    form = HomogeneousForm.diagonal([1, -1, 3], 2)
    verdict = padic_point_search(form, 5, node_budget=0)
    assert verdict.status is Solubility.SOLUBLE


def test_engine_rejects_bad_inputs():
    form = HomogeneousForm.diagonal([1, 1, -1], 2)
    with pytest.raises(ValueError):
        padic_point_search(form, 6)
    with pytest.raises(ValueError):
        padic_point_search(form, 5, depth_bound=0)


def test_engine_deterministic():
    form = HomogeneousForm.diagonal([3, -5, 7], 2)
    a = padic_point_search(form, 3)
    b = padic_point_search(form, 3)
    assert a == b
    g = HomogeneousForm.diagonal([1, 2, 7, 14], 3)
    assert padic_point_search(g, 7) == padic_point_search(g, 7)


def test_engine_decisions_stable_under_deeper_search():
    rng = random.Random(3)
    for _ in range(40):
        coeffs = [rng.choice([n for n in range(-15, 16) if n != 0]) for _ in range(3)]
        p = rng.choice([2, 3, 5, 7])
        form = HomogeneousForm.diagonal(coeffs, 2)
        base = padic_point_search(form, p)
        assert base.status is not Solubility.UNKNOWN
        for extra in (1, 2, 3):
            deeper = padic_point_search(
                form, p, depth_bound=2 * form.coefficient_valuation_sum(p) + 3 + extra
            )
            assert deeper.status is base.status


def test_verdict_refuses_truthiness():
    v = SolubilityVerdict(Solubility.SOLUBLE, 1, ((1, 1, 0), 1, 0))
    with pytest.raises(TypeError):
        bool(v)


def test_verify_certificate_rejects_tampering():
    form = HomogeneousForm.diagonal([1, 1, -21], 2)
    verdict = padic_point_search(form, 2)
    vec, level, idx = verdict.witness
    crooked = SolubilityVerdict(Solubility.SOLUBLE, verdict.depth_reached, ((3, 3, 3), level, idx))
    assert not verify_certificate(form, 2, crooked)
    insoluble = SolubilityVerdict(Solubility.INSOLUBLE, 2)
    assert not verify_certificate(form, 2, insoluble)


def test_engine_matches_brute_oracle_small_primes():
    """Triple agreement: engine, symbol criterion, and residue exhaustion."""
    rng = random.Random(211)
    nz = [n for n in range(-9, 10) if n != 0]
    for p, depths in [(2, (5, 6, 7)), (3, (3, 4)), (5, (2, 3))]:
        for _ in range(12):
            a, b, c = rng.choice(nz), rng.choice(nz), rng.choice(nz)
            brute = brute_decide([a, b, -c], 2, p, depths)
            assert brute is not None, (a, b, c, p)
            assert brute == conic_soluble(a, b, c, p)
            form = HomogeneousForm.diagonal([a, b, -c], 2)
            verdict = padic_point_search(form, p)
            assert verdict.status is not Solubility.UNKNOWN
            assert (verdict.status is Solubility.SOLUBLE) == brute


def _square_class_rep(x, p, nonresidue):
    v = valuation(x, p) % 2
    unit = 1 if legendre(x // p ** valuation(x, p), p) == 1 else nonresidue
    return p**v * unit


def test_engine_agrees_with_symbols_across_primes():
    """Engine vs symbol solubility for odd p <= 47, square-class cached.

    The cache is itself part of the claim: coefficients in the same square
    classes give the same verdict, which a direct uncached subset re-checks.
    """
    odd_primes = [int(p) for p in primes_up_to(47) if p > 2]
    rng = random.Random(97)
    nz = [n for n in range(-20, 21) if n != 0]
    checked = 0
    for p in odd_primes:
        nonresidue = next(n for n in range(2, p) if legendre(n, p) == -1)
        cache = {}
        for _ in range(140):
            a, b, c = rng.choice(nz), rng.choice(nz), rng.choice(nz)
            want = conic_soluble(a, b, c, p)
            key = tuple(_square_class_rep(x, p, nonresidue) for x in (a, b, -c))
            if key not in cache:
                form = HomogeneousForm.diagonal(list(key), 2)
                verdict = padic_point_search(form, p)
                assert verdict.status is not Solubility.UNKNOWN
                if verdict.status is Solubility.SOLUBLE:
                    assert verify_certificate(form, p, verdict)
                cache[key] = verdict.status is Solubility.SOLUBLE
            assert cache[key] == want
            checked += 1
    assert checked == 140 * len(odd_primes)
    # uncached spot checks: the class representative stands for the raw form
    for p in [3, 7, 19, 31, 43]:
        for _ in range(6):
            a, b, c = rng.choice(nz), rng.choice(nz), rng.choice(nz)
            form = HomogeneousForm.diagonal([a, b, -c], 2)
            verdict = padic_point_search(form, p)
            assert verdict.status is not Solubility.UNKNOWN
            assert (verdict.status is Solubility.SOLUBLE) == conic_soluble(a, b, c, p)


def test_engine_cubic_surfaces_spot_checks():
    soluble_cases = [
        ([1, 1, 1, 1], 7),
        ([1, 2, 3, 4], 13),
        ([1, 1, 7, 7], 7),  # -1 is a cube mod 7
        ([1, 2, 4, 5], 3),
        ([2, 9, 3, 1], 3),
        ([1, 3, 5, 7], 2),
    ]
    for coeffs, p in soluble_cases:
        form = HomogeneousForm.diagonal(coeffs, 3)
        verdict = padic_point_search(form, p)
        assert verdict.status is Solubility.SOLUBLE, (coeffs, p)
        assert verify_certificate(form, p, verdict)
    insoluble_cases = [
        ([1, 2, 7, 14], 7),
        ([1, 2, 7, 7 * 4], 7),
        ([1, 2, 13, 13 * 4], 13),
    ]
    for coeffs, p in insoluble_cases:
        form = HomogeneousForm.diagonal(coeffs, 3)
        verdict = padic_point_search(form, p)
        assert verdict.status is Solubility.INSOLUBLE, (coeffs, p)


def test_engine_cubic_vs_brute_oracle_at_3():
    rng = random.Random(41)
    nz = [n for n in range(-6, 7) if n != 0]
    decided = 0
    for _ in range(10):
        coeffs = [rng.choice(nz) for _ in range(4)]
        brute = brute_local_solubility(coeffs, 3, 3, 3)
        form = HomogeneousForm.diagonal(coeffs, 3)
        verdict = padic_point_search(form, 3)
        if brute is None:
            continue
        decided += 1
        assert verdict.status is not Solubility.UNKNOWN
        assert (verdict.status is Solubility.SOLUBLE) == brute
    assert decided >= 8


def test_witness_levels_are_consistent():
    rng = random.Random(59)
    nz = [n for n in range(-12, 13) if n != 0]
    for _ in range(60):
        coeffs = [rng.choice(nz) for _ in range(3)]
        p = rng.choice([2, 3, 5, 7, 11])
        form = HomogeneousForm.diagonal(coeffs, 2)
        verdict = padic_point_search(form, p)
        if verdict.status is Solubility.SOLUBLE:
            vec, level, idx = verdict.witness
            assert all(0 <= x < p**level for x in vec)
            assert form.evaluate(vec) % p**level == 0
            assert verify_certificate(form, p, verdict)


# ---------------------------------------------------------------------------
# every canonical diagonal cubic class


def _rep_coeffs(code: int, p: int) -> tuple[int, ...]:
    # a coefficient vector whose base-9 digits at p spell code; at
    # p = 2 (mod 3) every unit is a cube, so only class 0 is spelt.  The
    # search that pins _INSOLUBLE_CUBIC_CLASSES decides these vectors.
    g = 2 if p == 3 else _smallest_noncube(p) if p % 3 == 1 else 1
    return tuple(p ** (code // 9**i % 9 // 3) * g ** (code // 9**i % 3) for i in range(4))


def _cubic_class_forms(p):
    """{canonical code: representative diagonal cubic} for every class at p.

    A digit packs (valuation mod 3, cube class); at p = 2 mod 3 every unit
    is a cube, so only the class-0 digits exist there.
    """
    classes = 3 if p == 3 or p % 3 == 1 else 1
    codes = np.unique(_canonical_digit_codes())
    digits = codes[:, None] // 9 ** np.arange(4) % 9
    codes = codes[(digits % 3 < classes).all(axis=1)]
    return {int(c): HomogeneousForm.diagonal(_rep_coeffs(int(c), p), 3) for c in codes.tolist()}


# the insoluble canonical codes at p = 1 (mod 3); p = 3 has one, p = 2 (mod 3) none
_INSOLUBLE_CUBIC_CODES = {3168, 3177, 3178, 4626, 4635, 4636, 4707, 4716, 4717, 4726, 4788, 4798}


@pytest.mark.parametrize("p", primes_up_to(97).tolist() + [1009, 6007])
def test_every_cubic_class_is_decided(p):
    # the search at p itself, against the constant table CubicDecider reads
    forms = _cubic_class_forms(p)
    assert len(forms) == (55 if p == 3 or p % 3 == 1 else 5)
    status = {code: padic_point_search(form, p).status for code, form in forms.items()}
    assert Solubility.UNKNOWN not in status.values()
    insoluble = {code for code, st in status.items() if st is Solubility.INSOLUBLE}
    want = {3996} if p == 3 else _INSOLUBLE_CUBIC_CODES if p % 3 == 1 else set()
    assert insoluble == want
    verdicts = CubicDecider(p).model.verdicts(np.array(list(status)))
    assert [_RANKS[v] for v in verdicts.tolist()] == list(status.values())


@pytest.mark.parametrize("p", [2, 7, 13, 67])
def test_root_table_soluble_verdicts_carry_certificates(p):
    soluble = 0
    for form in _cubic_class_forms(p).values():
        verdict = padic_point_search(form, p)
        if verdict.status is Solubility.SOLUBLE:
            soluble += 1
            assert verify_certificate(form, p, verdict), form
    assert soluble > 0


def test_large_prime_charts_walk_the_grid_in_blocks():
    # at p = 331 the chart x_0 = 1 of x^3 + y^3 + z^3 + w^3 has p^3 cells,
    # walked block by block until the first zero certifies
    p = 331
    form = HomogeneousForm.diagonal([1, 1, 1, 1], 3)
    verdict = padic_point_search(form, p)
    assert verdict.status is Solubility.SOLUBLE
    assert verify_certificate(form, p, verdict)
    form = HomogeneousForm.diagonal([1, 2, p, 2 * p], 3)
    assert padic_point_search(form, p).status is Solubility.INSOLUBLE
    # one active variable with q residues: every block walked, none a zero
    q = 262147  # 3 mod 8, so 2 is no square mod q
    form = HomogeneousForm.diagonal([1, -2], 2)
    assert padic_point_search(form, q).status is Solubility.INSOLUBLE


def _pinned_searches():
    """(form, p, depth_bound) for every search the digest below pins."""
    for p in (2, 3, 7):  # the verdict-table classes, also cut short at depths 1 and 2
        for form in _cubic_class_forms(p).values():
            for depth_bound in (None, 1, 2):
                yield form, p, depth_bound
    for p in (2, 3, 5, 7, 11, 13):
        choices = sorted({1, 2, 3, p, 2 * p, p * p})
        for degree, m in ((2, 3), (3, 4)):
            for coeffs in itertools.product(choices, repeat=m):
                yield HomogeneousForm.diagonal(coeffs, degree), p, None
    # x^3 + y^3 + z^3 + xyz + 8 w^3 + x^2 w, written with a repeated w^3 and
    # a cancelling y z^2 term, so the default depth bound reads the monomials
    # as given
    cubic = HomogeneousForm(4, 3, (
        (1, (3, 0, 0, 0)), (1, (0, 3, 0, 0)), (1, (0, 0, 3, 0)), (1, (1, 1, 1, 0)),
        (2, (0, 0, 0, 3)), (6, (0, 0, 0, 3)), (1, (2, 0, 0, 1)),
        (3, (0, 1, 2, 0)), (-3, (0, 1, 2, 0)),
    ))
    for p in (2, 3, 5, 7):
        yield cubic, p, None


def test_search_verdicts_and_witnesses_are_pinned():
    # The digest was computed from the search as it stood before its forms
    # kept one term map and its Hensel test became one predicate; every
    # status, depth_reached and witness is unchanged since.
    digest = hashlib.sha256()
    count = 0
    for form, p, depth_bound in _pinned_searches():
        v = padic_point_search(form, p, depth_bound)
        digest.update(repr((v.status.value, v.depth_reached, v.witness)).encode())
        count += 1
    assert count == 7467
    assert digest.hexdigest() == (
        "3e4b9ed8d014b2ec86567ecde6a04d96b3c4b604d4e2d59994eec668c1b3d6a4"
    )
