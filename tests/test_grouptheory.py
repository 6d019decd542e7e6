"""Fixed-component densities: frozen values, invariances, document parsing."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibstat.grouptheory import (
    ComponentAction,
    bundled_document,
    delta,
    delta_total,
    load_bundled_actions,
    parse_action_document,
    parse_permutation,
)

ID2 = (0, 1)
SWAP = (1, 0)


def swap_action(mults=(1, 1)):
    return ComponentAction.from_elements([ID2, SWAP], mults)


def close_under_composition(gens, k):
    """Full element list of the permutation group generated by gens."""
    identity = tuple(range(k))
    seen = {identity}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for g in gens:
            c = tuple(g[a[i]] for i in range(k))
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return sorted(seen)


# ---------------------------------------------------------------------------
# delta on frozen cases


def test_trivial_group_single_reduced_component():
    act = ComponentAction.from_elements([(0,)], [1])
    assert delta(act) == 1


def test_swap_of_two_reduced_components():
    assert delta(swap_action()) == Fraction(1, 2)


def test_single_double_component_gives_zero():
    act = ComponentAction.from_elements([(0,)], [2])
    assert delta(act) == 0


def test_any_group_on_multiplicity_two_pair_gives_zero():
    assert delta(swap_action(mults=(2, 2))) == 0


def test_full_symmetric_group_on_three_components():
    elems = list(itertools.permutations(range(3)))
    act = ComponentAction.from_elements(elems, [1, 1, 1])
    # oracle: count permutations of 3 letters with a fixed point directly
    with_fp = sum(1 for g in elems if any(g[i] == i for i in range(3)))
    assert delta(act) == Fraction(with_fp, 6) == Fraction(2, 3)


def test_mixed_multiplicities_only_reduced_components_count():
    # component 0 has multiplicity 2 and is fixed by everything; the swap of
    # the two reduced components 1, 2 decides delta
    elems = [(0, 1, 2), (0, 2, 1)]
    act = ComponentAction.from_elements(elems, [2, 1, 1])
    assert delta(act) == Fraction(1, 2)


def test_delta_is_exact_fraction():
    assert isinstance(delta(swap_action()), Fraction)


# ---------------------------------------------------------------------------
# delta_total


def test_delta_total_empty_is_zero():
    assert delta_total([]) == 0


def test_delta_total_conic_three_swaps():
    assert delta_total([swap_action() for _ in range(3)]) == Fraction(3, 2)


def test_delta_total_double_fibres_count_fibres():
    fibre = ComponentAction.from_elements([(0,)], [2])
    assert delta_total([fibre, fibre]) == 2


def test_delta_total_mixed():
    fixed = ComponentAction.from_elements([(0,)], [1])
    total = delta_total([fixed, swap_action(), swap_action(mults=(2, 2))])
    assert total == Fraction(0) + Fraction(1, 2) + Fraction(1)


# ---------------------------------------------------------------------------
# validation


def test_rejects_missing_identity():
    with pytest.raises(ValueError):
        ComponentAction((SWAP,), (1, 1))


def test_rejects_non_closed_elements():
    threecycle = (1, 2, 0)
    with pytest.raises(ValueError, match="closed"):
        ComponentAction(((0, 1, 2), threecycle), (1, 1, 1))


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        ComponentAction.from_elements([(0, 0)], [1, 1])


def test_rejects_wrong_length_element():
    with pytest.raises(ValueError):
        ComponentAction.from_elements([(0,), (0, 1)], [1])


def test_rejects_multiplicity_change():
    with pytest.raises(ValueError, match="multiplicities"):
        swap_action(mults=(1, 2))


def test_rejects_empty_components():
    with pytest.raises(ValueError):
        ComponentAction.from_elements([()], [])


def test_rejects_nonpositive_multiplicity():
    with pytest.raises(ValueError):
        ComponentAction.from_elements([(0,)], [0])


def test_duplicate_elements_are_legal():
    # action factoring through a quotient: each image listed twice
    act = ComponentAction.from_elements([ID2, ID2, SWAP, SWAP], (1, 1))
    assert len(act.elements) == 4
    assert delta(act) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# invariance properties

perm_strategy = st.integers(2, 5).flatmap(
    lambda k: st.lists(
        st.permutations(range(k)).map(tuple), min_size=1, max_size=2
    ).map(lambda gens: (k, gens))
)


@settings(max_examples=60, deadline=None)
@given(perm_strategy, st.randoms(use_true_random=False))
def test_delta_in_unit_interval_and_invariances(kg, rng):
    k, gens = kg
    elems = close_under_composition(gens, k)
    # multiplicities must be constant on orbits; pick per-orbit values
    mults = [0] * k
    for i in range(k):
        if mults[i]:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for g in elems:
                if g[j] not in orbit:
                    orbit.add(g[j])
                    frontier.append(g[j])
        m = rng.choice([1, 1, 2, 3])
        for j in orbit:
            mults[j] = m
    act = ComponentAction.from_elements(elems, mults)
    d = delta(act)
    assert 0 <= d <= 1

    # relabeling components by any permutation conjugates the action and
    # permutes the multiplicity vector; delta cannot change
    sigma = list(range(k))
    rng.shuffle(sigma)
    inv = [0] * k
    for i, s in enumerate(sigma):
        inv[s] = i
    relabeled = [
        tuple(sigma[g[inv[j]]] for j in range(k)) for g in elems
    ]
    new_mults = [mults[inv[j]] for j in range(k)]
    assert delta(ComponentAction.from_elements(relabeled, new_mults)) == d

    # listing every element r times models a covering group with the same
    # image; delta is unchanged
    r = rng.choice([2, 3])
    assert delta(ComponentAction.from_elements(elems * r, mults)) == d

    if all(m > 1 for m in mults):
        assert d == 0
    if any(
        mults[i] == 1 and all(g[i] == i for g in elems) for i in range(k)
    ):
        assert d == 1


# ---------------------------------------------------------------------------
# permutation and document parsing


def test_parse_permutation_forms_agree():
    assert parse_permutation("id", 4) == (0, 1, 2, 3)
    assert parse_permutation("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    assert parse_permutation("1 0 3 2", 4) == (1, 0, 3, 2)
    assert parse_permutation("(0, 2)", 3) == (2, 1, 0)
    assert parse_permutation("(0 1 2)", 3) == (1, 2, 0)


@pytest.mark.parametrize(
    "bad",
    ["(0 1", "(0 1)(1 2)", "(5)", "()", "0 0", "0 1 3", "(0 1) junk"],
)
def test_parse_permutation_rejects(bad):
    with pytest.raises(ValueError):
        parse_permutation(bad, 3)


DOC = """
# two divisors
divisor pair
multiplicities 1 1
element id
element (0 1)
end
divisor thick
multiplicities 2
element id
end
"""


def test_parse_action_document():
    acts = parse_action_document(DOC)
    assert list(acts) == ["pair", "thick"]
    assert delta(acts["pair"]) == Fraction(1, 2)
    assert delta(acts["thick"]) == 0
    assert delta_total(acts.values()) == Fraction(3, 2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "divisor a\nmultiplicities 1\nelement id\n",  # no end
        "divisor a\nelement id\nend\n",  # element before multiplicities
        "end\n",
        "divisor a\ndivisor b\n",
        "divisor a\nmultiplicities 1\nend\n",  # no elements
        "divisor a\nmultiplicities 1\nmultiplicities 1\nelement id\nend\n",
        "divisor a\nmultiplicities 1\nelement id\nend\n"
        "divisor a\nmultiplicities 1\nelement id\nend\n",
        "frob x\n",
        "multiplicities 1\n",
    ],
)
def test_parse_action_document_rejects(text):
    with pytest.raises(ValueError):
        parse_action_document(text)


# ---------------------------------------------------------------------------
# bundled documents


def test_bundled_delta_examples():
    acts = load_bundled_actions("delta_examples.txt")
    values = {name: delta(a) for name, a in acts.items()}
    assert values == {
        "single_component": Fraction(1),
        "swapped_pair": Fraction(1, 2),
        "double_fibre": Fraction(0),
    }


def test_bundled_conic_document_gives_three_halves():
    acts = load_bundled_actions("conic_action.txt")
    assert len(acts) == 3
    assert all(delta(a) == Fraction(1, 2) for a in acts.values())
    assert delta_total(acts.values()) == Fraction(3, 2)


def test_bundled_genus1_document_gives_two():
    acts = load_bundled_actions("genus1_action.txt")
    assert all(delta(a) == 0 for a in acts.values())
    assert delta_total(acts.values()) == len(acts) == 2


def test_bundled_document_raw_text_readable():
    assert "divisor" in bundled_document("conic_action.txt")
