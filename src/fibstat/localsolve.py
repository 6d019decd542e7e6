"""Local solubility over Q_v: symbols, explicit criteria, and a p-adic search.

The scalar truth layer: Legendre and Hilbert symbols with exact local
formulas (including v = 2 and the real place), solubility of diagonal conics
by symbol evaluation, k-th power residues, and a depth-bounded residue-tree
search deciding whether a homogeneous form has a nontrivial p-adic zero.
The search reports soluble with a Hensel certificate, insoluble when every
branch of the residue tree dies, and an honest unknown otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """a = p^alpha * u with u a p-adic unit; returns (alpha, squarefree core of u).

    The unit is represented by an integer in the same square class: for a
    fraction n/d it is n*d with the p-part stripped.
    """
    frac = Fraction(a)
    rep = frac.numerator * frac.denominator
    alpha = valuation(rep, p)
    # numerator and denominator valuations add: v(n/d) = v(n) - v(d), but the
    # square class of the unit part of n/d matches that of n*d / p^v(nd).
    vnum = valuation(frac.numerator, p)
    vden = valuation(frac.denominator, p)
    return vnum - vden, rep // p**alpha


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

    Equivalent to the symbol condition (a/c, b/c)_v = +1.
    """
    if a == 0 or b == 0 or c == 0:
        raise ValueError("conic solubility needs nonzero coefficients")
    return hilbert(Fraction(a, c), Fraction(b, c), v) == 1


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


@dataclass(frozen=True)
class HomogeneousForm:
    """An integer homogeneous form, stored as (coefficient, exponent) monomials."""

    nvars: int
    degree: int
    monomials: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if not self.monomials:
            raise ValueError("form needs at least one monomial")
        for c, exps in self.monomials:
            if c == 0:
                raise ValueError("zero coefficient")
            if len(exps) != self.nvars or sum(exps) != self.degree:
                raise ValueError("monomial degree mismatch")

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
        return _poly_eval(_form_to_poly(self), tuple(vec))

    def partial(self, i: int) -> Optional["HomogeneousForm"]:
        mons = tuple((c, e) for e, c in _poly_partial(_form_to_poly(self), i).items())
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


Poly = dict[tuple[int, ...], int]  # exponent tuple -> integer coefficient


def _form_to_poly(form: HomogeneousForm) -> Poly:
    poly: Poly = {}
    for c, exps in form.monomials:
        poly[exps] = poly.get(exps, 0) + c
    return {e: c for e, c in poly.items() if c != 0}


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
    out: Poly = {}
    for exps, c in poly.items():
        if exps[i] > 0:
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0) + c * exps[i]
    return {e: c for e, c in out.items() if c != 0}


def _poly_substitute(poly: Poly, assign: dict[int, int], p: int) -> Poly:
    """y_i -> assign[i] + p*y_i for assigned variables (others untouched)."""
    out: Poly = {}
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
        for coef, ex in terms:
            if coef:
                key = tuple(ex)
                out[key] = out.get(key, 0) + coef
    return {e: c for e, c in out.items() if c != 0}


def _min_valuation(poly: Poly, p: int) -> int:
    return min(valuation(c, p) for c in poly.values())


def _mod_p_zeros(poly: Poly, p: int, cell_cap: int) -> tuple[list[int], np.ndarray] | None:
    """Zeros of poly mod p over its active variables; None if the grid is too big.

    Returns (active variable indices, array of zero tuples in lex order).
    """
    nvars = len(next(iter(poly)))
    reduced = {e: c % p for e, c in poly.items() if c % p != 0}
    active = sorted({i for e in reduced for i in range(nvars) if e[i] > 0})
    if p ** len(active) > cell_cap:
        return None
    if not active:
        # constant mod p; nonzero means no zeros at all (caller checks)
        const = sum(c for e, c in reduced.items()) % p
        empty = np.zeros((0, 0), dtype=np.int64)
        return [], empty if const % p else np.zeros((1, 0), dtype=np.int64)
    shape = (p,) * len(active)
    idx = np.indices(shape).reshape(len(active), -1)
    acc = np.zeros(idx.shape[1], dtype=np.int64)
    for exps, c in reduced.items():
        term = np.full(idx.shape[1], c % p, dtype=np.int64)
        for pos, i in enumerate(active):
            for _ in range(exps[i]):
                term = term * idx[pos] % p
        # exponents on inactive variables are 0 here by construction of active
        acc = (acc + term) % p
    zeros = idx.T[acc == 0]
    return active, zeros


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


def _diagonal_data(form: HomogeneousForm) -> Optional[list[tuple[int, int]]]:
    """[(variable index, coefficient)] when the form is diagonal, else None."""
    out = []
    for c, exps in form.monomials:
        live = [i for i, e in enumerate(exps) if e > 0]
        if len(live) != 1 or exps[live[0]] != form.degree:
            return None
        out.append((live[0], c))
    return out


def _eval_rows_mod(form: HomogeneousForm, rows: np.ndarray, M: int) -> np.ndarray:
    """form(rows) mod M, for rows holding residues in [0, M) and M < 2^31.

    Each product multiplies two residues below M, so it stays below
    M^2 < 2^62 and int64 never wraps.  A larger M raises ValueError; the
    check reads only M, never the rows.
    """
    if M >= 2**31:
        raise ValueError(f"modulus {M} too large for int64 residue products")
    acc = np.zeros(rows.shape[0], dtype=np.int64)
    for c, exps in form.monomials:
        term = np.full(rows.shape[0], c % M, dtype=np.int64)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * rows[:, i] % M
        acc = (acc + term) % M
    return acc


def _level1_chunks(form: HomogeneousForm, p: int, budget: _Budget):
    """Yield the nonzero residue vectors mod p killing the form, in blocks.

    A diagonal form in two or more variables takes the root table at every
    p: the head variable's roots are tabled by value and the trailing
    variables are streamed in blocks of at most 2^18 tails, one cell charged
    per tail.  It walks tail-major (tails lexicographic, head roots in
    arithmetic order).  Any other form walks the p^m grid lexicographically,
    in one block when p^m <= 2e6 and sliced on the leading variable above.
    The zero set is the same either way; only the level-1 witness depends
    on the order.  Yields None once when the budget dies.
    """
    m = form.nvars
    diag = _diagonal_data(form)
    block = 1 << 18
    if diag is None or m == 1:
        if p**m <= 2_000_000:
            if budget.spend(cells=p**m):
                yield None
                return
            idx = np.indices((p,) * m).reshape(m, -1)
            rows = idx.T
            vals = _eval_rows_mod(form, rows, p)
            mask = vals == 0
            mask[0] = False
            yield rows[mask]
            return
        # big non-diagonal grid: slice on the leading variable
        for lead in range(p):
            if budget.spend(cells=p ** (m - 1)):
                yield None
                return
            idx = np.indices((p,) * (m - 1)).reshape(m - 1, -1)
            rows = np.column_stack([np.full(idx.shape[1], lead, dtype=np.int64), idx.T])
            vals = _eval_rows_mod(form, rows, p)
            mask = vals == 0
            if lead == 0:
                mask[0] = False
            out = rows[mask]
            if out.shape[0]:
                yield out
        return
    # diagonal fast path: root table on the head variable, tails streamed
    d = form.degree
    coeffs = [0] * m
    for i, c in diag:
        coeffs[i] = coeffs[i] + c
    x = np.arange(p, dtype=np.int64)
    powd = x.copy()
    for _ in range(d - 1):
        powd = powd * x % p
    head_vals = coeffs[0] % p * powd % p
    order = np.argsort(head_vals, kind="stable")
    counts = np.bincount(head_vals, minlength=p)
    starts = np.concatenate([[0], np.cumsum(counts)])
    tails = np.indices((p,) * (m - 1)).reshape(m - 1, -1).T
    for s in range(0, tails.shape[0], block):
        tchunk = tails[s : s + block]
        if budget.spend(cells=len(tchunk)):
            yield None
            return
        rest = np.zeros(tchunk.shape[0], dtype=np.int64)
        for i in range(1, m):
            rest = (rest + coeffs[i] % p * powd[tchunk[:, i - 1]]) % p
        want = (-rest) % p
        cnt = counts[want]
        total = int(cnt.sum())
        if total == 0:
            continue
        rep_tails = np.repeat(tchunk, cnt, axis=0)
        base = np.repeat(starts[want], cnt)
        within = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        heads = x[order[base + within]]
        zeros = np.column_stack([heads, rep_tails])
        zeros = zeros[zeros.any(axis=1)]
        if zeros.shape[0]:
            yield zeros


def _canonical_reps(nodes: np.ndarray, p: int) -> np.ndarray:
    """One representative per unit-scaling class, lex-sorted.

    Rows are packed into scalar base-p keys for the dedup, so p^nvars must fit
    in int64; every caller has p <= a few hundred and nvars <= 4.
    """
    m = nodes.shape[1]
    if p**m >= 2**62:
        raise ValueError("residue vectors too wide to pack")
    inv = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)], dtype=np.int64)
    lead_idx = np.argmax(nodes != 0, axis=1)
    lead = nodes[np.arange(nodes.shape[0]), lead_idx]
    scaled = nodes * inv[lead][:, None] % p
    keys = np.zeros(scaled.shape[0], dtype=np.int64)
    for col in range(m):
        keys = keys * p + scaled[:, col]
    keys = np.unique(keys)
    out = np.empty((keys.shape[0], m), dtype=np.int64)
    for col in range(m - 1, -1, -1):
        out[:, col] = keys % p
        keys //= p
    return out


def _reconstruct(base: list[int], scale: list[int], y: dict[int, int]) -> tuple[int, ...]:
    return tuple(b + s * y.get(i, 0) for i, (b, s) in enumerate(zip(base, scale)))


def _original_certificate(
    form: HomogeneousForm, p: int, point: tuple[int, ...]
) -> Optional[tuple[tuple[int, ...], int, int]]:
    """Witness (point mod p^k, k, i) if the Hensel inequality holds at point."""
    fval = form.evaluate(point)
    best = None
    for i in range(form.nvars):
        partial = form.partial(i)
        if partial is None:
            continue
        dval = partial.evaluate(point)
        if dval == 0:
            continue
        vd = valuation(dval, p)
        if best is None or vd < best[1]:
            best = (i, vd)
    if best is None:
        return None
    i, vd = best
    if fval == 0:
        k = 2 * vd + 1
        return (tuple(v % p**k for v in point), k, i)
    if valuation(fval, p) > 2 * vd:
        k = 2 * vd + 1
        return (tuple(v % p**k for v in point), k, i)
    return None


class _Search:
    def __init__(self, form: HomogeneousForm, p: int, depth_bound: int, budget: _Budget):
        self.form = form
        self.p = p
        self.depth_bound = depth_bound
        self.budget = budget
        self.depth_seen = 1
        self.witness: Optional[tuple[tuple[int, ...], int, int]] = None

    def _newton_witness(
        self, poly: Poly, y: dict[int, int], i: int, base: list[int], scale: list[int]
    ) -> bool:
        """Refine an affine Hensel certificate until the original form certifies."""
        p = self.p
        yy = dict(y)
        for _ in range(48):
            point = _reconstruct(base, scale, yy)
            if any(point):
                wit = _original_certificate(self.form, p, point)
                if wit is not None:
                    self.witness = wit
                    return True
            w = _poly_eval(poly, tuple(yy.get(j, 0) for j in range(len(scale))))
            if w == 0:
                # exact zero but no usable partial; keep as plain solution point
                if any(point):
                    k = max(1, self.depth_bound)
                    self.witness = (tuple(v % p**k for v in point), k, 0)
                    return True
                return False
            dpoly = _poly_partial(poly, i)
            d = _poly_eval(dpoly, tuple(yy.get(j, 0) for j in range(len(scale))))
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
        """Solve poly(y) = 0 over Z_p^m under the recorded substitution chain."""
        p = self.p
        self.depth_seen = max(self.depth_seen, self.depth_bound - depth_left + 1)
        if self.budget.spend(nodes=1):
            return Solubility.UNKNOWN
        g = _min_valuation(poly, p)
        if g:
            poly = {e: c // p**g for e, c in poly.items()}
        res = _mod_p_zeros(poly, p, self.budget.cell_cap - self.budget.cells)
        if res is None:
            return Solubility.UNKNOWN
        active, zeros = res
        self.budget.spend(cells=p ** len(active) if active else 1)
        if zeros.shape[0] == 0:
            return Solubility.INSOLUBLE
        any_unknown = False
        nvars = len(scale)
        for row in zeros:
            y = {v: int(r) for v, r in zip(active, row)}
            yt = tuple(y.get(j, 0) for j in range(nvars))
            w = _poly_eval(poly, yt)
            if w == 0:
                point = _reconstruct(base, scale, y)
                if any(point):
                    wit = _original_certificate(self.form, p, point)
                    k = wit[1] if wit else max(1, self.depth_bound)
                    self.witness = wit or (tuple(v % p**k for v in point), k, 0)
                    return Solubility.SOLUBLE
            else:
                vw = valuation(w, p)
                for i in range(nvars):
                    d = _poly_eval(_poly_partial(poly, i), yt)
                    if d != 0 and vw > 2 * valuation(d, p):
                        if self._newton_witness(poly, y, i, base, scale):
                            return Solubility.SOLUBLE
            if depth_left <= 0:
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

    Level 1 inspects the primitive residue vectors mod p killing the form; a
    zero where some partial derivative stays a unit certifies solubility at
    once (Hensel).  Each remaining zero spawns a descent through successive
    p-digit refinements whose dead ends prove insolubility of that branch and
    whose Hensel-certified points prove solubility (v_p(F) > 2 v_p(dF_i),
    re-verified on the original form).  All branches dead means insoluble;
    exhausting the depth bound or the node/cell budget leaves an honest
    unknown.  Deterministic: level 1 walks a diagonal form's zeros
    tail-major through a root table and any other form's lexicographically
    (_level1_chunks); the branches below are descended in lexicographic
    order of their canonical representatives whatever the level-1 route.
    Only the witness depends on the level-1 order, not the status.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if depth_bound is None:
        depth_bound = 2 * form.coefficient_valuation_sum(p) + 3
    if depth_bound < 1:
        raise ValueError("depth bound must be >= 1")
    budget = _Budget(node_budget, 40_000_000)
    m = form.nvars
    partials = [form.partial(i) for i in range(m)]
    rep_blocks: list[np.ndarray] = []
    saw_zero = False
    for zeros in _level1_chunks(form, p, budget):
        if zeros is None:
            return SolubilityVerdict(Solubility.UNKNOWN, 1)
        if zeros.shape[0] == 0:
            continue
        saw_zero = True
        # instant Hensel certificates: a unit partial derivative at a zero mod p
        cert_idx = np.full(zeros.shape[0], -1, dtype=np.int64)
        for i in reversed(range(m)):
            if partials[i] is None:
                continue
            dvals = _eval_rows_mod(partials[i], zeros, p)
            cert_idx[dvals != 0] = i
        hits = np.nonzero(cert_idx >= 0)[0]
        if hits.size:
            r = int(hits[0])
            vec = tuple(int(v) for v in zeros[r])
            return SolubilityVerdict(Solubility.SOLUBLE, 1, (vec, 1, int(cert_idx[r])))
        rep_blocks.append(_canonical_reps(zeros, p))
    if not saw_zero:
        return SolubilityVerdict(Solubility.INSOLUBLE, 1)
    if depth_bound == 1:
        return SolubilityVerdict(Solubility.UNKNOWN, 1)

    reps = _canonical_reps(np.concatenate(rep_blocks), p)
    search = _Search(form, p, depth_bound, budget)
    if p * p < 2**31:
        # branch kill: v_p(F) = 1 at a representative makes the shifted
        # polynomial a unit multiple of p, a nonzero constant after division,
        # so that branch dies at the next level without a descent call.
        alive = _eval_rows_mod(form, reps, p * p) == 0
        if not alive.all():
            search.depth_seen = 2
            reps = reps[alive]
    poly0 = _form_to_poly(form)
    any_unknown = False
    for row in reps:
        base = [int(v) for v in row]
        shifted = _poly_substitute(poly0, dict(enumerate(base)), p)
        if not shifted:
            # the form vanishes identically on the branch: base itself works
            wit = _original_certificate(form, p, tuple(base))
            k = wit[1] if wit else depth_bound
            witness = wit or (tuple(v % p**k for v in base), k, 0)
            return SolubilityVerdict(Solubility.SOLUBLE, 1, witness)
        st = search.run_affine(shifted, base, [p] * m, depth_bound - 1)
        if st is Solubility.SOLUBLE:
            return SolubilityVerdict(Solubility.SOLUBLE, search.depth_seen, search.witness)
        if st is Solubility.UNKNOWN:
            any_unknown = True
    if any_unknown:
        return SolubilityVerdict(Solubility.UNKNOWN, search.depth_seen)
    return SolubilityVerdict(Solubility.INSOLUBLE, search.depth_seen)


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
    if fval == 0:
        return True
    partial = form.partial(i)
    if partial is None:
        return False
    dval = partial.evaluate(vec)
    if dval == 0:
        return False
    return valuation(fval, p) > 2 * valuation(dval, p)
