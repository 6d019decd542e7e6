"""Local solubility over Q_v: symbols, explicit criteria, and a p-adic search.

The scalar truth layer: Legendre and Hilbert symbols with exact local
formulas (including v = 2 and the real place), solubility of diagonal conics
by symbol evaluation, k-th power residues, and a depth-bounded search
deciding whether a homogeneous form has a nontrivial p-adic zero.  The
search splits the primitive vectors into affine charts (the first unit
coordinate set to 1) and runs one residue-disk descent per chart: it
reports soluble with a Hensel certificate, insoluble when every disk of
every chart dies, and an honest unknown otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .arith import factorize, is_prime, valuation

__all__ = [
    "INF",
    "Rational",
    "legendre",
    "hilbert",
    "hilbert_reciprocity_check",
    "conic_soluble",
    "is_kth_power_residue",
    "HomogeneousForm",
    "Solubility",
    "SolubilityVerdict",
    "padic_point_search",
    "verify_certificate",
]

INF = math.inf  # the real place

Rational = Union[int, Fraction]
Place = Union[int, float]


def _check_place(v: Place) -> Place:
    if v == INF:
        return INF
    if isinstance(v, (int, np.integer)) and is_prime(int(v)):
        return int(v)
    raise ValueError(f"not a place: {v!r} (expected a prime or INF)")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} for an odd prime p."""
    a, p = int(a), int(p)
    if p == 2 or not is_prime(p):
        raise ValueError("legendre symbol needs an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _unit_legendre(u: int, p: int) -> int:
    # assumes p odd prime, p does not divide u
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def _split(a: Rational, p: int) -> tuple[int, int]:
    """a = p^alpha * u with u a p-adic unit; returns (alpha, rep // p^v(rep)).

    rep is an integer in the square class of u: a itself for an integer, n*d
    for a fraction n/d.  Stripping rep's p-part leaves a p-adic unit in the
    same square class as u; it is not squarefree in general.
    """
    if isinstance(a, int):
        alpha = valuation(a, p)
        return alpha, a // p**alpha
    frac = Fraction(a)
    rep = frac.numerator * frac.denominator
    # numerator and denominator valuations add: v(n/d) = v(n) - v(d), but the
    # square class of the unit part of n/d matches that of n*d / p^v(nd).
    vnum = valuation(frac.numerator, p)
    vden = valuation(frac.denominator, p)
    return vnum - vden, rep // p ** (vnum + vden)


def hilbert(a: Rational, b: Rational, v: Place) -> int:
    """Hilbert symbol (a, b)_v in {-1, 1} for nonzero rationals a, b."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero entries")
    v = _check_place(v)
    if v == INF:
        return -1 if a < 0 and b < 0 else 1
    p = int(v)
    alpha, u = _split(a, p)
    beta, w = _split(b, p)
    if p != 2:
        sign = 1
        if (alpha & 1) and (beta & 1) and p % 4 == 3:
            sign = -sign
        if beta & 1:
            sign *= _unit_legendre(u, p)
        if alpha & 1:
            sign *= _unit_legendre(w, p)
        return sign
    eps_u = ((u % 8) - 1) // 2 % 2
    eps_w = ((w % 8) - 1) // 2 % 2
    om_u = ((u % 8) ** 2 - 1) // 8 % 2
    om_w = ((w % 8) ** 2 - 1) // 8 % 2
    exponent = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if exponent % 2 else 1


def hilbert_reciprocity_check(a: Rational, b: Rational) -> bool:
    """Does the product of (a, b)_v over all places equal +1?  (It must.)"""
    fa, fb = Fraction(a), Fraction(b)
    support: set[int] = {2}
    for x in (fa.numerator, fa.denominator, fb.numerator, fb.denominator):
        support.update(factorize(x))
    prod = hilbert(a, b, INF)
    for p in support:
        prod *= hilbert(a, b, p)
    return prod == 1


def conic_soluble(a: int, b: int, c: int, v: Place) -> bool:
    """Does a x^2 + b y^2 = c z^2 have a nontrivial Q_v-point?

    Equivalent to the symbol condition (a/c, b/c)_v = +1, read in integers
    as (ac, bc)_v = +1: the two pairs differ by the square c^2 in each entry.
    """
    if a == 0 or b == 0 or c == 0:
        raise ValueError("conic solubility needs nonzero coefficients")
    return hilbert(a * c, b * c, v) == 1


def is_kth_power_residue(a: int, p: int, k: int) -> bool:
    """Is a a k-th power in F_p^*?  Tested via a^((p-1)/g) = 1, g = gcd(k, p-1)."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if a % p == 0:
        raise ValueError("a must be a unit mod p")
    g = math.gcd(k, p - 1)
    return pow(a % p, (p - 1) // g, p) == 1


# ---------------------------------------------------------------------------
# homogeneous forms and the residue-tree search


Poly = dict[tuple[int, ...], int]  # exponent tuple -> nonzero integer coefficient


def _collect(terms: Iterable[tuple[tuple[int, ...], int]]) -> Poly:
    """Sum the coefficients of equal exponents and drop the zeros."""
    out: Poly = {}
    for exps, c in terms:
        out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c != 0}


@dataclass(frozen=True)
class HomogeneousForm:
    """An integer homogeneous form, given as (coefficient, exponent) monomials.

    terms merges the monomials once into the term map every evaluation and
    the search read; equality and hashing stay on the given fields.
    """

    nvars: int
    degree: int
    monomials: tuple[tuple[int, tuple[int, ...]], ...]
    terms: Poly = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.monomials:
            raise ValueError("form needs at least one monomial")
        for c, exps in self.monomials:
            if c == 0:
                raise ValueError("zero coefficient")
            if len(exps) != self.nvars or sum(exps) != self.degree:
                raise ValueError("monomial degree mismatch")
        object.__setattr__(self, "terms", _collect((e, c) for c, e in self.monomials))

    @staticmethod
    def diagonal(coeffs: Iterable[int], degree: int) -> "HomogeneousForm":
        coeffs = [int(c) for c in coeffs]
        mons = []
        for i, c in enumerate(coeffs):
            if c != 0:
                exps = [0] * len(coeffs)
                exps[i] = degree
                mons.append((c, tuple(exps)))
        return HomogeneousForm(len(coeffs), degree, tuple(mons))

    def evaluate(self, vec: Iterable[int]) -> int:
        return _poly_eval(self.terms, tuple(vec))

    def partial(self, i: int) -> Optional["HomogeneousForm"]:
        mons = tuple((c, e) for e, c in _poly_partial(self.terms, i).items())
        if not mons:
            return None
        return HomogeneousForm(self.nvars, self.degree - 1, mons)

    def coefficient_valuation_sum(self, p: int) -> int:
        return sum(valuation(c, p) for c, _ in self.monomials)


class Solubility(Enum):
    SOLUBLE = "soluble"
    INSOLUBLE = "insoluble"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolubilityVerdict:
    status: Solubility
    depth_reached: int
    witness: Optional[tuple[tuple[int, ...], int, int]] = None
    # witness = (vector mod p^level, level, partial index with the Hensel bound)

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("compare verdict.status explicitly")


def _poly_eval(poly: Poly, vec: tuple[int, ...]) -> int:
    total = 0
    for exps, c in poly.items():
        term = c
        for x, e in zip(vec, exps):
            if e:
                term *= x**e
        total += term
    return total


def _poly_partial(poly: Poly, i: int) -> Poly:
    return _collect(
        (e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in poly.items() if e[i]
    )


def _hensel(fval: int, dval: int, p: int) -> bool:
    """Hensel's inequality: F = 0, or dF_i != 0 and v_p(F) > 2 v_p(dF_i)."""
    return fval == 0 or (dval != 0 and valuation(fval, p) > 2 * valuation(dval, p))


def _poly_substitute(poly: Poly, assign: dict[int, int], p: int) -> Poly:
    """y_i -> assign[i] + p*y_i for assigned variables (others untouched)."""
    out = []
    for exps, c in poly.items():
        # expand each assigned variable's power by the binomial theorem
        terms = [(c, list(exps))]
        for i, r in assign.items():
            new_terms = []
            for coef, ex in terms:
                e = ex[i]
                if e == 0:
                    new_terms.append((coef, ex))
                    continue
                for j in range(e + 1):
                    binom = math.comb(e, j)
                    ne = list(ex)
                    ne[i] = j
                    new_terms.append((coef * binom * r ** (e - j) * p**j, ne))
            terms = new_terms
        out.extend((tuple(ex), coef) for coef, ex in terms)
    return _collect(out)


class _Budget:
    __slots__ = ("nodes", "cells", "node_cap", "cell_cap", "blown")

    def __init__(self, node_cap: int, cell_cap: int):
        self.nodes = 0
        self.cells = 0
        self.node_cap = node_cap
        self.cell_cap = cell_cap
        self.blown = False

    def spend(self, nodes=0, cells=0) -> bool:
        self.nodes += nodes
        self.cells += cells
        if self.nodes > self.node_cap or self.cells > self.cell_cap:
            self.blown = True
        return self.blown


_BLOCK_CELLS = 1 << 12  # small: most charts certify within their first block


def _mod_p_zeros(poly: Poly, p: int, budget: _Budget):
    """Zeros of poly mod p over its active variables; None past the cell budget.

    Returns (active variable indices, iterator of zero-row blocks).  The
    p^k residue cells are walked in lexicographic order, at most 2^12 at a
    time, so memory stays bounded and a caller that stops at its first
    certified zero evaluates no further block.  Each block's cells are
    charged to the budget as it is evaluated.
    """
    nvars = len(next(iter(poly)))
    reduced = {e: c % p for e, c in poly.items() if c % p}
    active = sorted({i for e in reduced for i in range(nvars) if e[i]})
    if p ** len(active) > budget.cell_cap - budget.cells:
        return None
    return active, _zero_blocks(reduced, active, p, budget)


def _zero_blocks(reduced: Poly, active: list[int], p: int, budget: _Budget):
    k = len(active)
    if not k:
        # a unit constant (the caller divided out the content): no zeros
        budget.spend(cells=1)
        return
    # Residues stay below p and p <= p^k <= cell cap < 2^31, so every
    # product of two residues is below 2^62 and int64 never wraps.
    cells = p**k
    for start in range(0, cells, _BLOCK_CELLS):
        idx = np.unravel_index(np.arange(start, min(start + _BLOCK_CELLS, cells)), (p,) * k)
        n = len(idx[0])
        budget.spend(cells=n)
        acc = np.zeros(n, dtype=np.int64)
        for exps, c in reduced.items():
            term = np.full(n, c, dtype=np.int64)
            for pos, i in enumerate(active):
                for _ in range(exps[i]):
                    term = term * idx[pos] % p
            acc = (acc + term) % p
        zeros = np.column_stack(idx)[acc == 0]
        if zeros.shape[0]:
            yield zeros


def _reconstruct(base: list[int], scale: list[int], y: dict[int, int]) -> tuple[int, ...]:
    return tuple(b + s * y.get(i, 0) for i, (b, s) in enumerate(zip(base, scale)))


class _Search:
    def __init__(self, form: HomogeneousForm, p: int, depth_bound: int, budget: _Budget):
        self.form = form
        self.partials = [_poly_partial(form.terms, i) for i in range(form.nvars)]
        self.p = p
        self.depth_bound = depth_bound
        self.budget = budget
        self.depth_seen = 1
        self.witness: Optional[tuple[tuple[int, ...], int, int]] = None

    def _original_certificate(
        self, point: tuple[int, ...]
    ) -> Optional[tuple[tuple[int, ...], int, int]]:
        """Witness (point mod p^k, k, i) if the Hensel inequality holds at
        point for the partial of least valuation (the first on a tie)."""
        p = self.p
        vals = [
            (valuation(d, p), i, d)
            for i, t in enumerate(self.partials)
            if (d := _poly_eval(t, point))
        ]
        if not vals:
            return None
        vd, i, d = min(vals)
        if not _hensel(_poly_eval(self.form.terms, point), d, p):
            return None
        k = 2 * vd + 1
        return (tuple(v % p**k for v in point), k, i)

    def _newton_witness(
        self, poly: Poly, y: dict[int, int], i: int, base: list[int], scale: list[int]
    ) -> bool:
        """Refine an affine Hensel certificate until the original form certifies.

        An exact zero with no certificate (every partial vanishes there) is
        kept as it is, at the depth bound.
        """
        p = self.p
        yy = dict(y)
        dpoly = _poly_partial(poly, i)
        for _ in range(48):
            point = _reconstruct(base, scale, yy)
            wit = self._original_certificate(point)
            if wit is not None:
                self.witness = wit
                return True
            yt = tuple(yy.get(j, 0) for j in range(len(scale)))
            w = _poly_eval(poly, yt)
            if w == 0:
                k = self.depth_bound
                self.witness = (tuple(v % p**k for v in point), k, 0)
                return True
            d = _poly_eval(dpoly, yt)
            if d == 0:
                return False
            vd = valuation(d, p)
            vw = valuation(w, p)
            if vw <= 2 * vd:
                return False
            prec = p ** (2 * (vw - vd))
            u = d // p**vd
            step = (w // p**vd) * pow(u % prec, -1, prec) % prec
            yy[i] = yy.get(i, 0) - step
        return False

    def run_affine(
        self, poly: Poly, base: list[int], scale: list[int], depth_left: int
    ) -> Solubility:
        """Solve poly(y) = 0 over Z_p^m, where x = base + scale * y.

        Each zero of poly mod p is a residue disk: a Hensel certificate
        there proves solubility; otherwise, with depth left, the disk is
        descended one p-digit deeper, charging one budget node.
        """
        p = self.p
        self.depth_seen = max(self.depth_seen, self.depth_bound - depth_left)
        g = min(valuation(c, p) for c in poly.values())
        if g:
            poly = {e: c // p**g for e, c in poly.items()}
        res = _mod_p_zeros(poly, p, self.budget)
        if res is None:
            return Solubility.UNKNOWN
        active, blocks = res
        nvars = len(scale)
        partials = [_poly_partial(poly, i) for i in range(nvars)]
        any_unknown = False
        for row in itertools.chain.from_iterable(blocks):
            y = {v: int(r) for v, r in zip(active, row)}
            yt = tuple(y.get(j, 0) for j in range(nvars))
            w = _poly_eval(poly, yt)
            # an exact zero passes the test at i = 0, and _newton_witness keeps it
            if any(
                _hensel(w, _poly_eval(d, yt), p) and self._newton_witness(poly, y, i, base, scale)
                for i, d in enumerate(partials)
            ):
                return Solubility.SOLUBLE
            if depth_left <= 0 or self.budget.spend(nodes=1):
                any_unknown = True
                continue
            nbase = list(base)
            nscale = list(scale)
            for v, r in y.items():
                nbase[v] += nscale[v] * r
                nscale[v] *= p
            sub = _poly_substitute(poly, y, p)
            st = self.run_affine(sub, nbase, nscale, depth_left - 1)
            if st is Solubility.SOLUBLE:
                return Solubility.SOLUBLE
            if st is Solubility.UNKNOWN:
                any_unknown = True
        return Solubility.UNKNOWN if any_unknown else Solubility.INSOLUBLE


def padic_point_search(
    form: HomogeneousForm,
    p: int,
    depth_bound: Optional[int] = None,
    node_budget: int = 200_000,
) -> SolubilityVerdict:
    """Decide whether form = 0 has a nontrivial p-adic zero, to a depth bound.

    A primitive zero has a first unit coordinate x_i; scaling it to 1 puts
    the zero on exactly one of m affine charts, chart i being x_i = 1,
    x_j = p y_j for j < i and x_j = y_j for j > i.  Each chart is solved
    over Z_p^m by the residue-disk descent (_Search.run_affine): the chart
    level is depth 1, and each descent through a zero mod p costs one
    budget node and one level.  A zero where some partial derivative
    satisfies v_p(F) > 2 v_p(dF_i) certifies solubility (Hensel),
    re-verified on the original form.  Soluble if any chart is, insoluble
    if every chart's disks all die, an honest unknown otherwise (depth
    bound or node/cell budget exhausted).  Deterministic: charts in index
    order, zeros mod p in lexicographic order.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if depth_bound is None:
        depth_bound = 2 * form.coefficient_valuation_sum(p) + 3
    if depth_bound < 1:
        raise ValueError("depth bound must be >= 1")
    search = _Search(form, p, depth_bound, _Budget(node_budget, 40_000_000))
    m = form.nvars
    any_unknown = False
    for i in range(m):
        # x_i = 1 is injective on the monomials of a homogeneous form, so the
        # chart polynomial keeps every term and never vanishes
        chart = {e[:i] + (0,) + e[i + 1 :]: c * p ** sum(e[:i]) for e, c in form.terms.items()}
        base = [int(j == i) for j in range(m)]
        scale = [p] * i + [0] + [1] * (m - i - 1)
        st = search.run_affine(chart, base, scale, depth_bound - 1)
        if st is Solubility.SOLUBLE:
            return SolubilityVerdict(Solubility.SOLUBLE, search.depth_seen, search.witness)
        any_unknown |= st is Solubility.UNKNOWN
    status = Solubility.UNKNOWN if any_unknown else Solubility.INSOLUBLE
    return SolubilityVerdict(status, search.depth_seen)


def verify_certificate(form: HomogeneousForm, p: int, verdict: SolubilityVerdict) -> bool:
    """Re-check a soluble verdict's witness against the exact Hensel inequality.

    An exact nontrivial zero of the form passes regardless of the recorded
    partial index.
    """
    if verdict.status is not Solubility.SOLUBLE or verdict.witness is None:
        return False
    vec, level, i = verdict.witness
    if not any(vec):
        return False
    fval = form.evaluate(vec)
    return fval == 0 or _hensel(fval, _poly_eval(_poly_partial(form.terms, i), vec), p)
