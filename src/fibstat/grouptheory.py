"""Fixed-component densities of finite group actions on fibre components.

A divisor in the base of a family carries a finite group acting on the
irreducible components of the fibre over its generic point, each component
weighted by a multiplicity.  The quantity delta = proportion of group
elements fixing some multiplicity-1 component controls how often the fibres
over that divisor contribute a local obstruction; Delta sums (1 - delta)
over divisors and is the growth constant of the obstruction count.

Actions are given by their full element list as permutations (image lists),
which may repeat when the action factors through a quotient: delta only
depends on the image, and the repetition count models the covering degree.

Document format (parse_action_document)::

    # comment
    divisor <name>
    multiplicities <m_0> <m_1> ... <m_{k-1}>
    element id
    element (0 1)(2 3)          # cycle notation
    element 1 0 3 2             # image notation, same permutation
    end

Blocks repeat, one per divisor.  Two bundled documents reproduce the worked
examples: ``conic_action.txt`` (three swapped pairs, Delta = 3/2) and
``genus1_action.txt`` (double fibres only, Delta = 2); ``delta_examples.txt``
holds the three canonical single-divisor cases with delta 1, 1/2, 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterable, Sequence

__all__ = [
    "ComponentAction",
    "delta",
    "delta_total",
    "parse_permutation",
    "parse_action_document",
    "bundled_document",
    "load_bundled_actions",
]


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    # apply b first, then a
    return tuple(a[b[i]] for i in range(len(a)))


@dataclass(frozen=True)
class ComponentAction:
    """A finite group acting on multiplicity-weighted fibre components.

    elements is the full element list of the group, each a tuple of images
    on component indices; duplicates are allowed and mean the action factors
    through a proper quotient, and the group's order is len(elements).
    """

    elements: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        k = len(self.multiplicities)
        if k == 0:
            raise ValueError("need at least one component")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        images = set()
        for g in self.elements:
            if len(g) != k or sorted(g) != list(range(k)):
                raise ValueError(f"not a permutation of {k} components: {g!r}")
            images.add(tuple(g))
        identity = tuple(range(k))
        if identity not in images:
            raise ValueError("identity element missing")
        for a in images:
            for b in images:
                if _compose(a, b) not in images:
                    raise ValueError("element images are not closed under composition")
        for g in self.elements:
            for i, j in enumerate(g):
                if self.multiplicities[i] != self.multiplicities[j]:
                    raise ValueError("action does not preserve multiplicities")

    @staticmethod
    def from_elements(
        elements: Iterable[Sequence[int]], multiplicities: Sequence[int]
    ) -> "ComponentAction":
        elems = tuple(tuple(int(i) for i in g) for g in elements)
        return ComponentAction(elems, tuple(int(m) for m in multiplicities))


def delta(action: ComponentAction) -> Fraction:
    """Proportion of group elements fixing some multiplicity-1 component."""
    fixing = 0
    for g in action.elements:
        if any(
            g[i] == i and action.multiplicities[i] == 1
            for i in range(len(action.multiplicities))
        ):
            fixing += 1
    return Fraction(fixing, len(action.elements))


def delta_total(divisors: Iterable[ComponentAction]) -> Fraction:
    """Sum of (1 - delta) over the supplied divisor actions.

    Divisors with delta = 1 contribute nothing and may be omitted from the
    list; the sum is the growth constant for the family.
    """
    return sum((1 - delta(d) for d in divisors), Fraction(0))


# ---------------------------------------------------------------------------
# text document format


def parse_permutation(spec: str, k: int) -> tuple[int, ...]:
    """One permutation of range(k) from 'id', cycle, or image notation."""
    spec = spec.strip()
    if spec == "id":
        return tuple(range(k))
    if spec.startswith("("):
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", spec):
            raise ValueError(f"malformed cycle notation: {spec!r}")
        perm = list(range(k))
        seen: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", spec):
            idx = [int(t) for t in re.split(r"[,\s]+", body.strip()) if t]
            if not idx:
                raise ValueError(f"empty cycle in {spec!r}")
            for i in idx:
                if not 0 <= i < k:
                    raise ValueError(f"component {i} out of range 0..{k - 1}")
                if i in seen:
                    raise ValueError(f"component {i} repeated across cycles")
                seen.add(i)
            for pos, i in enumerate(idx):
                perm[i] = idx[(pos + 1) % len(idx)]
        return tuple(perm)
    images = [int(t) for t in spec.split()]
    if sorted(images) != list(range(k)):
        raise ValueError(f"not an image list on {k} components: {spec!r}")
    return tuple(images)


def parse_action_document(text: str) -> dict[str, ComponentAction]:
    """Parse divisor blocks into named actions, preserving document order."""
    out: dict[str, ComponentAction] = {}
    name = None
    mults: tuple[int, ...] | None = None
    elements: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "divisor":
            if name is not None:
                raise ValueError(f"line {lineno}: previous block not closed with 'end'")
            if not rest:
                raise ValueError(f"line {lineno}: divisor needs a name")
            if rest in out:
                raise ValueError(f"line {lineno}: duplicate divisor name {rest!r}")
            name, mults, elements = rest, None, []
        elif word == "multiplicities":
            if name is None:
                raise ValueError(f"line {lineno}: multiplicities outside a divisor block")
            if mults is not None:
                raise ValueError(f"line {lineno}: multiplicities given twice")
            mults = tuple(int(t) for t in rest.split())
        elif word == "element":
            if name is None or mults is None:
                raise ValueError(f"line {lineno}: element before multiplicities")
            elements.append(parse_permutation(rest, len(mults)))
        elif word == "end":
            if name is None:
                raise ValueError(f"line {lineno}: stray 'end'")
            if mults is None or not elements:
                raise ValueError(f"line {lineno}: block {name!r} is incomplete")
            out[name] = ComponentAction(tuple(elements), mults)
            name, mults, elements = None, None, []
        else:
            raise ValueError(f"line {lineno}: unknown directive {word!r}")
    if name is not None:
        raise ValueError(f"unterminated divisor block {name!r}")
    if not out:
        raise ValueError("document contains no divisor blocks")
    return out


def bundled_document(filename: str) -> str:
    """Text of a bundled action document (conic_action.txt, genus1_action.txt,
    delta_examples.txt)."""
    return resources.files("fibstat").joinpath("data", filename).read_text()


def load_bundled_actions(filename: str) -> dict[str, ComponentAction]:
    return parse_action_document(bundled_document(filename))
