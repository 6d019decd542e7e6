"""Enumeration, exact counts and residue classes on P^n(Q)."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibstat.arith import moebius_up_to
from fibstat.projective import (
    ProjPoint,
    ResidueClass,
    cn,
    count_congruence,
    count_points,
    enumerate_points,
    point_slabs,
    proj_size,
    reduce_point,
    residue_classes,
)


def naive_points(n, B):
    """Oracle: all canonical primitive vectors via a plain nested loop."""
    pts = set()
    for vec in product(range(-B, B + 1), repeat=n + 1):
        if all(v == 0 for v in vec):
            continue
        g = math.gcd(*vec)
        vec = tuple(v // g for v in vec)
        lead = next(v for v in vec if v != 0)
        if lead < 0:
            vec = tuple(-v for v in vec)
        pts.add(vec)
    return pts


def naive_proj_size(n, Q):
    """Oracle: orbit count of primitive vectors mod Q under unit scaling."""
    units = [u for u in range(1, Q) if math.gcd(u, Q) == 1]
    orbits = set()
    for vec in product(range(Q), repeat=n + 1):
        if math.gcd(*vec, Q) != 1:
            continue
        orbits.add(min(tuple((u * v) % Q for v in vec) for u in units))
    return len(orbits)


def test_p1_small_counts_frozen():
    # oracle: naive double loop gives 4 points at B=1 and 16 at B=3
    assert len(naive_points(1, 1)) == 4
    assert len(naive_points(1, 3)) == 16
    assert len(list(enumerate_points(1, 1))) == 4
    assert len(list(enumerate_points(1, 3))) == 16


def test_p1_b1_exact_set():
    got = {p.coords for p in enumerate_points(1, 1)}
    assert got == {(0, 1), (1, 0), (1, 1), (1, -1)}


@pytest.mark.parametrize("n,B", [(1, 7), (1, 12), (2, 5), (2, 8), (3, 3)])
def test_enumeration_matches_naive(n, B):
    got = [p.coords for p in enumerate_points(n, B)]
    assert len(got) == len(set(got)), "duplicate points"
    assert set(got) == naive_points(n, B)


@pytest.mark.parametrize("n,B", [(1, 30), (2, 11), (3, 4)])
def test_count_formula_matches_enumeration(n, B):
    assert count_points(n, B) == sum(1 for _ in enumerate_points(n, B))


def count_points_by_content(n, B):
    """Oracle: Moebius inversion with one term for every content k <= B."""
    mu = moebius_up_to(B)
    total = sum(int(mu[k]) * ((2 * (B // k) + 1) ** (n + 1) - 1) for k in range(1, B + 1))
    assert total % 2 == 0
    return total // 2


# the quotient runs of B // k change length around m^2 - 1, m^2 and m(m + 1)
RUN_EDGES = [e for m in (2, 3, 7, 31, 100, 316) for e in (m * m - 1, m * m, m * (m + 1))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_points_matches_per_content_loop(n):
    for B in [*range(1, 401), *RUN_EDGES]:
        assert count_points(n, B) == count_points_by_content(n, B), B


def test_count_points_matches_per_content_loop_at_a_million():
    assert count_points(2, 10**6) == count_points_by_content(2, 10**6)


def test_slabs_match_enumeration():
    slabs = np.concatenate(list(point_slabs(2, 5)))
    got = {tuple(int(v) for v in row) for row in slabs}
    assert len(got) == slabs.shape[0]
    assert got == {p.coords for p in enumerate_points(2, 5)}
    # same rows in the same order, through every zero prefix
    rows = np.concatenate(list(point_slabs(3, 6))).tolist()
    assert rows == [list(p.coords) for p in enumerate_points(3, 6)]


def test_heights_and_canonical_form():
    p = ProjPoint.from_vector((-2, 4))
    assert p.coords == (1, -2) and p.height == 2
    p = ProjPoint.from_vector((0, -3, 6))
    assert p.coords == (0, 1, -2)
    with pytest.raises(ValueError):
        ProjPoint.from_vector((0, 0))
    for pt in enumerate_points(2, 4):
        assert pt.height == max(abs(v) for v in pt.coords) <= 4
        assert next(v for v in pt.coords if v != 0) > 0


@pytest.mark.parametrize(
    "n,Q,expected",
    [(2, 5, 31), (2, 4, 28), (1, 6, 12)],
)
def test_proj_size_frozen_examples(n, Q, expected):
    # oracle: orbit counting over (Z/Q)^{n+1}
    assert naive_proj_size(n, Q) == expected
    assert proj_size(n, Q) == expected


@given(
    n=st.integers(min_value=1, max_value=4),
    Q=st.integers(min_value=1, max_value=10**4),
)
@settings(max_examples=200, deadline=None)
def test_proj_size_sandwich(n, Q):
    size = proj_size(n, Q)
    omega = len([p for p in range(2, Q + 1) if Q % p == 0 and all(p % q for q in range(2, p))])
    assert Q**n <= size <= 2**omega * Q**n


@given(
    n=st.integers(min_value=1, max_value=3),
    a=st.integers(min_value=1, max_value=400),
    b=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_proj_size_multiplicative(n, a, b):
    if math.gcd(a, b) == 1:
        assert proj_size(n, a * b) == proj_size(n, a) * proj_size(n, b)


def test_proj_size_brute_force_more():
    for n, Q in [(1, 2), (1, 9), (2, 6), (2, 8), (3, 3), (2, 15)]:
        assert proj_size(n, Q) == naive_proj_size(n, Q)


def test_residue_class_unit_scaling():
    a = ResidueClass.from_vector((1, 2, 3), 5)
    b = ResidueClass.from_vector((2, 4, 6), 5)
    c = ResidueClass.from_vector((1, 2, 4), 5)
    assert a == b and hash(a) == hash(b)
    assert a != c
    with pytest.raises(ValueError):
        ResidueClass.from_vector((0, 5, 10), 5)
    with pytest.raises(ValueError):
        ResidueClass.from_vector((1, 2, 3), 4)  # not squarefree


def test_residue_classes_cover_proj_size():
    for n, Q in [(1, 3), (2, 3), (2, 5), (1, 15), (2, 6)]:
        classes = residue_classes(n, Q)
        assert len(classes) == proj_size(n, Q)
        assert len(set(classes)) == len(classes)


def test_reduce_point():
    pt = ProjPoint.from_vector((3, 5, 7))
    cls = reduce_point(pt, 5)
    assert cls == ResidueClass.from_vector((3, 0, 2), 5)


def test_congruence_partition_exact():
    # partition: per-class counts sum to the total, exactly, for p <= 13
    B = 200
    total = count_points(2, B)
    for p in (2, 3, 5, 7, 11, 13):
        classes = residue_classes(2, p)
        acc = 0
        for cls in classes:
            cnt, _, _ = count_congruence(2, B, p, lambda c, cls=cls: c == cls)
            acc += cnt
        assert acc == total, f"partition broken at p={p}"


def test_congruence_counts_match_enumeration():
    B, p = 25, 3
    by_class = {}
    for pt in enumerate_points(2, B):
        by_class.setdefault(reduce_point(pt, p), 0)
        by_class[reduce_point(pt, p)] += 1
    for cls, want in by_class.items():
        cnt, _, _ = count_congruence(2, B, p, lambda c, cls=cls: c == cls)
        assert cnt == want


def test_congruence_counts_match_enumeration_composite_modulus():
    # Q = 6 drops the contents divisible by 2 and those divisible by 3
    B, Q = 25, 6
    by_class = Counter(reduce_point(pt, Q) for pt in enumerate_points(2, B))
    classes = residue_classes(2, Q)
    assert len(classes) == 91
    for cls in classes:
        cnt, _, _ = count_congruence(2, B, Q, lambda c, cls=cls: c == cls)
        assert cnt == by_class[cls], cls


def test_congruence_partition_exact_composite_modulus():
    # the 2821 classes mod 30 in seven groups by coordinate sum mod 7: each
    # group's count matches the enumeration and the groups sum to the total
    B, Q = 12, 30
    assert len(residue_classes(2, Q)) == 2821
    by_group = Counter(sum(reduce_point(pt, Q).coords) % 7 for pt in enumerate_points(2, B))
    acc = 0
    for r in range(7):
        cnt, _, _ = count_congruence(2, B, Q, lambda c, r=r: sum(c.coords) % 7 == r)
        assert cnt == by_group[r], r
        acc += cnt
    assert acc == count_points(2, B)


def test_congruence_counts_past_int64():
    # every class mod 2 selected: the count is count_points, here above 2^63,
    # and each box of radius T <= 10^5 holds about (T + 1)^4 vectors of a class
    B = 10**5
    cnt, _, _ = count_congruence(3, B, 2, lambda c: True)
    assert cnt == count_points(3, B) > 2**63


def test_congruence_refuses_modulus_below_two():
    # Q = 1 has no units, so the unit cone would be empty rather than refused
    for Q in (1, 0, -6):
        with pytest.raises(ValueError, match="modulus"):
            count_congruence(2, 20, Q, lambda c: True)
        with pytest.raises(ValueError, match="modulus"):
            residue_classes(2, Q)


def test_congruence_empty_predicate():
    cnt, main, rel = count_congruence(2, 50, 3, lambda c: False)
    assert cnt == 0 and main == 0.0 and rel == 0.0


def test_density_constant():
    assert abs(cn(2) - 4.0 / 1.2020569031595943) < 1e-12
    assert abs(cn(1) - 2.0 / (math.pi**2 / 6)) < 1e-12


def test_asymptotic_density_b1000():
    # count / B^3 approaches c_2 = 4/zeta(3); 1% band at B = 1000
    B = 1000
    total = count_points(2, B)
    assert abs(total / B**3 - cn(2)) / cn(2) < 0.01


def test_equidistribution_trend_mod3():
    # max relative error over classes mod 3 should fall as B doubles
    errs = []
    classes = residue_classes(2, 3)
    for B in (250, 500, 1000, 2000):
        worst = 0.0
        for cls in classes:
            _, _, rel = count_congruence(2, B, 3, lambda c, cls=cls: c == cls)
            worst = max(worst, rel)
        errs.append(worst)
    violations = sum(1 for a, b in zip(errs, errs[1:]) if b >= a)
    assert violations <= 1, errs
