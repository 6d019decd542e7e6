"""Concrete families of varieties packaged as data.

Two built-in fibrations over projective coefficient space: diagonal plane
conics a x^2 + b y^2 = c z^2 and diagonal cubic surfaces
y_0 x_0^3 + y_1 x_1^3 + y_2 x_2^3 + y_3 x_3^3 = 0.  A FamilyDescriptor
bundles everything the statistics layer needs: the discriminant form f (the
product of the coordinates, so a fibre is smooth iff no coordinate is 0), a
bad-prime bound A, the divisor actions and the growth constant Delta summed
from them, the scalar per-place insolubility test theta, and the
hooks the vectorized paths run on: digit_model (at one place), theta_grid
(at one prime per row) and an optional exact sigma_p (over an array of
primes).  Record sets carry their descriptor, so the statistics layer
reads every family-specific behaviour, centering included, here.

The module also computes the local densities sigma_p (exact residue
classification for conics, Monte Carlo over residue disks for anything
else), counts obstructed places per point (omega), and calibrates A
empirically.  Every verdict at one place, and every exact insoluble
density, reads the family's DigitModel: a digit per coefficient, a code
per row, and a verdict per code (conics: three digit-triple tables built
from localsolve.conic_soluble; cubics: three canonical-class tables
pinned from the local criterion; INF: theta per sign pattern).

theta(x, v) answers "does the fibre over x have NO Q_v-point"; for the
cubic family an undecidable point raises Undecided rather than guessing,
and omega_pi turns that into a tainted record.  Only the sampler's primes
> A, one per row, bypass digit_model through theta_grid.  The scalar
theta, omega_pi and CubicDecider.decide are the reference tests hold them
to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .arith import (
    SizeRefused, check_fits_in_memory, factorize, is_prime, jacobi, primes_up_to, valuation
)
from .grouptheory import ComponentAction, delta_total, load_bundled_actions
from .localsolve import (
    INF,
    HomogeneousForm,
    Place,
    Solubility,
    conic_soluble,
    legendre,
)
from .projective import ProjPoint, point_slabs, proj_size, residue_classes

__all__ = [
    "Undecided",
    "ObstructionRecord",
    "FamilyDescriptor",
    "DigitModel",
    "SigmaTable",
    "DiskDensityEstimate",
    "CalibrationReport",
    "diagonal_conics",
    "diagonal_cubics",
    "family_by_name",
    "FAMILY_NAMES",
    "omega_pi",
    "omega_formula_conics",
    "sigma_exact",
    "sigma_empirical",
    "disk_modulus",
    "conic_sigma_formula",
    "conic_insoluble_density",
    "insoluble_density",
    "calibrate_A",
    "conic_insoluble_grid",
    "CubicDecider",
    "cube_class",
    "cubic_criterion",
]


class Undecided(Exception):
    """The decision engine could not certify solubility either way."""

    def __init__(self, coords, place, detail=""):
        self.coords = tuple(coords)
        self.place = place
        super().__init__(
            f"solubility undecided at place {place} for {self.coords}"
            + (f": {detail}" if detail else "")
        )


@dataclass(frozen=True)
class ObstructionRecord:
    """Insoluble places of one fibre: the primes (and possibly the real
    place) at which the fibre has no local point, omega = their count.

    tainted means some candidate place came back undecided; such records
    are excluded from exact statistics and counted separately.
    """

    point: ProjPoint
    insoluble_places: tuple[Place, ...]
    omega: int
    tainted: bool = False

    def __post_init__(self):
        if self.omega != len(self.insoluble_places):
            raise ValueError("omega must count insoluble_places")
        if list(self.insoluble_places) != sorted(self.insoluble_places):
            raise ValueError("insoluble_places must be sorted")


@dataclass(frozen=True)
class FamilyDescriptor:
    """A fibration over P^n presented as data.

    f is the discriminant form, the product of the coordinates: away from
    f = 0 (and primes <= A) fibres are everywhere locally soluble, so the
    places that can obstruct at x are the primes <= A, the primes dividing
    some coordinate, and the real place.  The growth constant Delta is
    delta_total(divisors); a divisor whose delta is 1 adds nothing to it and
    may be left out, so the cubics list none.

    digit_model(v) is the DigitModel that decides the place v, a prime or
    INF; every verdict at one place reads it.  theta_grid(rows, primes) is
    theta over an (N, n+1) array of nonzero rows at an int64 array of
    primes > A, one per row, as int8: 0 soluble, 1 insoluble, 2 undecided,
    so a sampled batch whose rows obstruct at different primes is one call.
    sigma_p, when present, gives the exact local densities: it takes an
    int64 array of primes p > A and returns int64 arrays (numerators,
    denominators), one exact fraction per prime, not necessarily in lowest
    terms.
    """

    name: str
    n: int
    A: int
    theta: Callable[[Sequence[int], Place], bool]
    theta_grid: Callable[[np.ndarray, np.ndarray], np.ndarray]
    digit_model: Callable[[Place], DigitModel]
    divisors: tuple[ComponentAction, ...]
    nonsplit: Optional[Callable[[Sequence[int], int], bool]] = None
    sigma_p: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        if self.A < 2:
            raise ValueError("bad-prime bound must be at least 2")

    @property
    def Delta(self) -> Fraction:
        """The growth constant, the sum of 1 - delta over the divisor actions."""
        return delta_total(self.divisors)

    @property
    def f(self) -> HomogeneousForm:
        """The discriminant form, the product of the n+1 coordinates."""
        return HomogeneousForm(self.n + 1, self.n + 1, ((1, (1,) * (self.n + 1)),))

    def smooth(self, x) -> bool:
        """Is the fibre over x smooth?  f(x) != 0, i.e. no zero coordinate."""
        return all(v != 0 for v in _coords(x))


@dataclass(frozen=True)
class SigmaTable:
    """Local densities sigma_p with their partial sums along cutoffs.

    entries maps p to an exact Fraction (residue classification) or a float
    estimate.  partial_sums[B] = sum of sigma_p over p <= B, and
    beta_fit is the fitted constant term of partial_sum(B) ~
    Delta log log B + beta.
    """

    entries: dict[int, Fraction | float]
    partial_sums: dict[int, float]
    beta_fit: float


def _coords(x) -> tuple[int, ...]:
    if isinstance(x, ProjPoint):
        return x.coords
    return tuple(int(v) for v in x)


# ---------------------------------------------------------------------------
# diagonal conics


def _conic_theta(x, place: Place) -> bool:
    a, b, c = _coords(x)
    return not conic_soluble(a, b, c, place)


def _conic_nonsplit(res: Sequence[int], p: int) -> bool:
    """Is the conic fibre over (a:b:c) in P^2(F_p) non-split?  p odd.

    Rank 3 is a smooth conic (split); rank 2 splits into two lines defined
    over F_p iff -(product of the nonzero coefficients on the relevant
    side) is a square; rank <= 1 is a double line, never split.
    """
    p = int(p)
    if p == 2:
        raise ValueError("non-split classification implemented for odd p only")
    # int coercion matters: numpy bools would turn the zero count into an "or"
    a, b, c = (int(v) % p for v in res)
    zeros = (a == 0) + (b == 0) + (c == 0)
    if zeros == 0:
        return False
    if zeros >= 2:
        return True
    # rank 2: a x^2 + b y^2 - c z^2 restricted to the two live variables
    if a == 0:
        disc = b * (-c)
    elif b == 0:
        disc = a * (-c)
    else:
        disc = a * b
    return legendre(-disc % p, p) == -1


@functools.lru_cache(maxsize=None)
def diagonal_conics() -> FamilyDescriptor:
    """The family a x^2 + b y^2 = c z^2 over the coefficient plane."""
    return FamilyDescriptor(
        name="diagonal_conics",
        n=2,
        A=2,
        theta=_conic_theta,
        theta_grid=lambda rows, primes: conic_insoluble_grid(rows, primes).view(np.int8),
        digit_model=_conic_model,
        divisors=tuple(load_bundled_actions("conic_action.txt").values()),
        nonsplit=_conic_nonsplit,
        sigma_p=_conic_sigma_terms,
    )


# ---------------------------------------------------------------------------
# vectorized conic insolubility over coefficient arrays


def _strip(col: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    # returns (valuation, unit part); p is one prime, or an array of one per
    # entry.  A nonzero int64 has valuation at most 63, so an entry still
    # divisible after 64 passes is a zero.
    col = col.astype(np.int64, copy=True)
    val = np.zeros(col.shape, dtype=np.int64)
    idx = np.nonzero(col % p == 0)[0]
    per_entry = np.ndim(p) > 0
    for _ in range(64):
        if not idx.size:
            return val, col
        q = p[idx] if per_entry else p
        col[idx] //= q
        val[idx] += 1
        idx = idx[col[idx] % q == 0]
    raise ValueError("zero entry has no p-adic valuation")


@dataclass(frozen=True)
class DigitModel:
    """How a family decides one place v, a prime p or INF.

    digits maps nonzero int64 values to digits below base, and code packs a
    row's digits into one code, coordinate i's digit weighted base**i;
    _code_digits unpacks every code below base**width.  verdicts maps an
    integer array of codes, of any shape, to int8 of that shape:
    0 soluble, 1 insoluble, 2 undecided.  masses[d] is the exact Haar mass
    of the values in Z_p with digit d, and a digit reads margin p-adic
    digits of the unit part; at INF the digit is the sign (_sign_model).
    """

    base: int
    digits: Callable[[np.ndarray], np.ndarray]
    verdicts: Callable[[np.ndarray], np.ndarray]
    masses: tuple[Fraction, ...]
    margin: int

    def code(self, digits: Sequence[np.ndarray]) -> np.ndarray:
        """One digit array per coordinate, broadcasting together, packed into
        codes in the smallest unsigned dtype that holds base**len(digits) - 1."""
        dtype = np.min_scalar_type(self.base ** len(digits) - 1)
        terms = (np.asarray(d, dtype) * self.base**i for i, d in enumerate(digits))
        return functools.reduce(np.add, terms)

    def grid(self, rows) -> np.ndarray:
        """int8 verdict per row of nonzero entries; a zero raises ValueError.

        With m = max |entry|, the digits are computed once for the 2m + 1
        values in [-m, m] and gathered when 2m + 1 is at most the row count;
        wider rows get the digits of each coordinate column.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not rows.all():
            raise ValueError("zero entry has no digit")
        m = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
        if 2 * m + 1 > len(rows):
            return self.verdicts(self.code([self.digits(col) for col in rows.T]))
        # position v holds value v, so a negative entry reads from the end
        values = np.concatenate([np.arange(m + 1), np.arange(-m, 0)])
        values[0] = 1  # stands in for 0, which no row holds
        table = self.digits(values)
        return self.verdicts(self.code([table[col] for col in rows.T]))


def _code_digits(base: int, width: int) -> np.ndarray:
    """Every code below base**width in order, as the row of its width
    digits: row c holds the digits DigitModel.code packs into c."""
    return np.arange(base**width)[:, None] // base ** np.arange(width) % base


@functools.lru_cache(maxsize=None)
def _sign_model(theta: Callable[[Sequence[int], Place], bool], n: int) -> DigitModel:
    """The DigitModel of the real place for a family with n+1 coordinates.

    A value's digit is 1 when it is negative.  Real solubility reads only
    the signs, so each of the 2^(n+1) sign patterns gets theta's verdict at
    INF on its row of +-1.
    """
    rows = 1 - 2 * _code_digits(2, n + 1)
    table = np.array([theta(row, INF) for row in rows.tolist()], np.int8)
    return DigitModel(2, lambda v: (v < 0).astype(np.int64), table.take, (Fraction(1, 2),) * 2, 0)


def _squares(p: int) -> np.ndarray:
    # qr[r] for 0 <= r < p: is r a nonzero square mod p
    qr = np.zeros(p, dtype=bool)
    r = np.arange(1, p, dtype=np.int64)
    qr[r * r % p] = True
    return qr


def _nonresidue(units: np.ndarray, p) -> np.ndarray:
    # (u|p) = -1 for units at an odd prime, or one odd prime per unit: read
    # off the table of squares when one prime has at least p units, from
    # Jacobi symbols otherwise, so memory never grows with p
    if np.ndim(p) or p > len(units):
        return jacobi(units, p) < 0
    return ~_squares(p)[units % p]


def _conic_digits(values: np.ndarray, p) -> np.ndarray:
    """What the conic verdict at p reads of each nonzero value, as a digit.

    At an odd prime: 2 (v_p mod 2) + [unit part a non-residue], in 0..3.
    At p = 2: 4 (v_2 mod 2) + (unit part mod 8) // 2, in 0..7.  p is one
    prime, or an int64 array of odd primes, one per value.
    """
    v, u = _strip(values, p)
    if np.ndim(p) == 0 and p == 2:
        return (v & 1) * 4 + (u & 7) // 2
    return (v & 1) * 2 + _nonresidue(u, p)


@functools.lru_cache(maxsize=None)
def _conic_verdicts(p: int) -> np.ndarray:
    """Conic insolubility per digit triple, by code da + D db + D^2 dc.

    The verdict reads only the digits (_conic_digits) and p mod 4, so
    three tables serve every prime: p = 2, p = 1 mod 4 and p = 3 mod 4,
    built at the representative primes 2, 5 and 3 (_conic_model picks
    one).  Each digit gets one representative value p^e u, with u over
    1, 3, 5, 7 at p = 2 and over 1 and the non-residue 2 at p = 3, 5,
    and localsolve.conic_soluble decides each triple.
    """
    units = (1, 3, 5, 7) if p == 2 else (1, 2)
    reps = np.array([p**e * u for e in (0, 1) for u in units])
    return np.array(
        [not conic_soluble(a, b, c, p) for a, b, c in reps[_code_digits(len(reps), 3)].tolist()]
    )


@functools.lru_cache(maxsize=None)
def _conic_model(p: Place) -> DigitModel:
    if p == INF:
        return _sign_model(_conic_theta, 2)
    # a valuation is even with mass p/(p+1), odd with 1/(p+1); the unit part
    # is uniform on k classes: its residue symbol at odd p, mod 8 at p = 2
    k = 4 if p == 2 else 2
    table = _conic_verdicts(2 if p == 2 else 5 if p % 4 == 1 else 3)
    masses = tuple(Fraction(p if e == 0 else 1, (p + 1) * k) for e in (0, 1) for _ in range(k))
    digits = functools.partial(_conic_digits, p=p)
    return DigitModel(2 * k, digits, table.view(np.int8).take, masses, 3 if p == 2 else 1)


def conic_insoluble_grid(coeffs: np.ndarray, place: Place | np.ndarray) -> np.ndarray:
    """Vectorized theta for the conic family: a boolean per coefficient row.

    coeffs is an (N, 3) integer array with no zero entries (a zero raises
    ValueError).  place is INF, a prime, or an int64 array of N odd primes,
    one per row.  At one place this is _conic_model(place).grid.  At a
    prime a row packs its three digits (_conic_digits) into a code, and the
    code reads its verdict from the table for p = 2 or p mod 4
    (_conic_verdicts); at INF the digits are signs.  Agrees with the
    scalar Hilbert-symbol route entry by entry.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if np.ndim(place):
        p = np.asarray(place, dtype=np.int64)
        # every odd prime's model packs the same base-4 digits
        codes = _conic_model(3).code([_conic_digits(col, p) for col in coeffs.T])
        return np.where(p % 4 == 1, _conic_verdicts(5)[codes], _conic_verdicts(3)[codes])
    return _conic_model(place if place == INF else int(place)).grid(coeffs).view(bool)


# ---------------------------------------------------------------------------
# diagonal cubics: canonical coefficient classes and a cached decision engine

# the cube class of each residue mod 9 (-1 at non-units), which decides p = 3
_CUBE_CLASS_MOD_9 = np.array([-1, 0, 1, -1, 2, 2, -1, 1, 0], np.int8)
_is_prime = functools.lru_cache(maxsize=1024)(is_prime)  # cube_class runs per coordinate


def cube_class(u: int, p: int) -> int:
    """Cube class of the unit u in Z_p^* / cubes, as 0, 1 or 2.

    For p = 2 mod 3 every unit is a cube (class 0).  For p = 1 mod 3 the
    class is the discrete log of u^((p-1)/3) along the powers of the
    smallest non-cube.  For p = 3 the class is read off mod 9.
    """
    u = int(u)
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if u % p == 0:
        raise ValueError("cube class needs a p-adic unit")
    if p == 3:
        return int(_CUBE_CLASS_MOD_9[u % 9])
    if p % 3 != 1:
        return 0
    e = (p - 1) // 3
    t = pow(u, e, p)
    if t == 1:
        return 0
    g = _smallest_noncube(p)
    return 1 if t == pow(g, e, p) else 2


@functools.lru_cache(maxsize=None)
def _smallest_noncube(p: int) -> int:
    for g in range(2, p):
        if pow(g, (p - 1) // 3, p) != 1:
            return g
    raise ValueError(f"no non-cube mod {p}")


def _cube_classes(units: np.ndarray, p: int) -> np.ndarray:
    """int8 cube class of each p-adic unit in units, by cube_class's rule:
    at p = 1 (mod 3) from u^((p-1)/3) mod p by square-and-multiply over the
    array (exact while (p - 1)^2 fits int64, which CubicDecider checks), or
    once per residue when there are more units than residues."""
    units = np.asarray(units, dtype=np.int64)
    if p == 3:
        return _CUBE_CLASS_MOD_9[units % 9]
    if p % 3 != 1:
        return np.zeros(units.shape, np.int8)
    if p < units.size:
        return _cube_classes(np.arange(p), p)[units % p]
    e = (p - 1) // 3
    u = t = units % p
    for bit in bin(e)[3:]:  # the bits of e after its leading 1
        t = t * t % p
        if bit == "1":
            t = t * u % p
    return np.where(t == 1, 0, np.where(t == pow(_smallest_noncube(p), e, p), 1, 2)).astype(np.int8)


def cubic_criterion(coeffs: Sequence[int], p: int) -> bool:
    """Congruence test that forces p-adic insolubility of a diagonal cubic.

    For a prime p = 1 mod 3 and nonzero integer coefficients (y1..y4):
    up to reordering, two coefficients are p-units, the other two have
    valuation exactly 1, and within each pair the unit parts lie in
    different cube classes.  (Minus a ratio of same-class units is a cube
    because -1 is one, so signs never matter.)  Sufficient, not necessary.
    """
    p = int(p)
    if not is_prime(p) or p % 3 != 1:
        raise ValueError("criterion applies to primes p = 1 mod 3")
    cs = [int(v) for v in coeffs]
    if len(cs) != 4 or any(v == 0 for v in cs):
        raise ValueError("need four nonzero coefficients")
    units, carries = [], []
    for v in cs:
        w = valuation(abs(v), p)
        if w == 0:
            units.append(v % p)
        elif w == 1:
            carries.append((v // p**w) % p)
    if len(units) != 2 or len(carries) != 2:
        return False
    return (cube_class(units[0], p) != cube_class(units[1], p)
            and cube_class(carries[0], p) != cube_class(carries[1], p))


@functools.lru_cache(maxsize=1)
def _canonical_digit_codes() -> np.ndarray:
    """canonical[code] for all base-9 digit 4-tuples (v mod 3, cube class).

    Two coefficient vectors land in the same canonical code exactly when
    they differ by coordinate permutation, a common scaling (shifting every
    valuation by s), a common unit factor (shifting every class by t), and
    per-coordinate unit-cube factors.  Each move is a bijection on
    solution sets, so solubility is a function of the canonical code.
    """
    # every (s, t) move at once: four digit columns of shape (9, 9**4), one
    # row per move, sorted across by a five-comparator network and packed;
    # the canonical code is the least.  int16 holds every code below 9**4.
    s, t = np.divmod(np.arange(9, dtype=np.int16)[:, None], 3)
    digits = _code_digits(9, 4).T.astype(np.int16)
    cols = [(d // 3 + s) % 3 * 3 + (d % 3 + t) % 3 for d in digits]
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return sum(col * 9**i for i, col in enumerate(cols)).min(axis=0)


_RANKS = (Solubility.SOLUBLE, Solubility.INSOLUBLE, Solubility.UNKNOWN)


# the insoluble canonical codes (_canonical_digit_codes) at each
# representative prime, checked against the search at every prime <= 97
# and at 1009 and 6007
_INSOLUBLE_CUBIC_CLASSES = {
    2: (),
    3: (3996,),
    7: (3168, 3177, 3178, 4626, 4635, 4636, 4707, 4716, 4717, 4726, 4788, 4798),
}


@functools.lru_cache(maxsize=None)
def _cubic_verdicts(rep: int) -> np.ndarray:
    """Cubic verdict per raw base-9 digit 4-tuple at the prime rep, as int8
    indices into _RANKS.

    Every canonical class (_canonical_digit_codes) with mass at rep reads
    soluble except those _INSOLUBLE_CUBIC_CLASSES lists, and every code
    reads its class's verdict; a class with no mass (unit classes 1, 2 at
    rep = 2) reads 2.  Three tables serve every prime, built at rep = 2, 3
    and 7 (CubicDecider picks one), by the local criterion of
    Colliot-Thelene, Kanevsky and Sansuc (LNM 1290, 1987).  For p != 3,
    two coefficients whose valuations agree mod 3 give a smooth zero, which
    Hensel lifts, exactly when minus their ratio is a unit cube.  At
    p = 2 (mod 3) every unit is a cube, and four coefficients always put two
    in one valuation class, so every class is soluble.  At p = 1 (mod 3),
    p >= 7, three coefficients in one valuation class cut a smooth plane
    cubic with at least p + 1 - 2 sqrt(p) > 0 points.  So a verdict reads
    only which valuations and cube classes coincide, which is why one
    representative prime serves each class of prime.  The lists are
    pinned against localsolve.padic_point_search by
    test_every_cubic_class_is_decided.
    """
    k = 1 if rep == 2 else 3
    canonical = _canonical_digit_codes()
    status = np.full(9**4, 2, np.int8)
    reachable = (_code_digits(9, 4) % 3 < k).all(axis=1)
    status[canonical[reachable]] = 0
    status[list(_INSOLUBLE_CUBIC_CLASSES[rep])] = 1
    return status[canonical]


class CubicDecider:
    """Solubility at the prime p of sum y_i x_i^3 = 0, read from a constant
    verdict table.

    A coefficient's digit records its valuation mod 3 and the cube class of
    its unit part (_cube_classes); the verdict of a row's digits is the
    same at every prime of one class, p = 2 (mod 3), p = 3 or p = 1 (mod 3),
    so it comes from _cubic_verdicts at 2, 3 or 7.
    model is the DigitModel: valuations = r (mod 3) have mass
    p^-r / (1 + 1/p + 1/p^2), spread evenly over the unit cube classes.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("p must be prime")
        self.p = int(p)
        if self.p % 3 == 1 and (self.p - 1) ** 2 > np.iinfo(np.int64).max:
            raise SizeRefused(f"the cube classes mod {p} need (p - 1)^2 past int64")
        rep = 3 if self.p == 3 else 7 if self.p % 3 == 1 else 2
        k = 1 if rep == 2 else 3
        mass = 1 / (1 + Fraction(1, self.p) + Fraction(1, self.p**2)) / k
        masses = tuple(mass / self.p**r * (c < k) for r in range(3) for c in range(3))
        table = _cubic_verdicts(rep)
        # cube classes of units are read mod 9 at p = 3, mod p elsewhere
        self.model = DigitModel(9, self._digits, table.take, masses, 2 if self.p == 3 else 1)

    def decide(self, coords: Sequence[int]) -> Solubility:
        """The verdict of one coefficient row, its digits read by scalar
        valuations and cube_class."""
        p = self.p
        code = 0
        for i, y in enumerate(coords):
            y = int(y)
            if y == 0:
                raise ValueError("cubic coefficients must be nonzero")
            v = valuation(y, p)
            code += ((v % 3) * 3 + cube_class(y // p**v, p)) * 9**i
        return _RANKS[self.model.verdicts(code)]

    def _digits(self, values: np.ndarray) -> np.ndarray:
        # (valuation mod 3, cube class of the unit part) as one base-9 digit
        v, u = _strip(values, self.p)
        return (v % 3) * 3 + _cube_classes(u, self.p)

    def decide_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """int8 verdict per row: 0 soluble, 1 insoluble, 2 undecided.

        coeffs is (N, 4) with nonzero entries; a zero raises ValueError.
        """
        return self.model.grid(coeffs)


# bounded: a sample meets a new prime in almost every row, and a decider,
# which holds only p and its model, is cheap to rebuild
_cubic_decider = functools.lru_cache(maxsize=256)(CubicDecider)


def _cubic_theta(x, place: Place) -> bool:
    coords = _coords(x)
    if any(v == 0 for v in coords):
        raise ValueError("cubic theta needs a smooth fibre (nonzero coefficients)")
    if place == INF:
        return False  # odd-degree diagonal forms always have real points
    verdict = _cubic_decider(int(place)).decide(coords)
    if verdict is Solubility.UNKNOWN:
        raise Undecided(coords, place, "search depth or budget exhausted")
    return verdict is Solubility.INSOLUBLE


def _cubic_theta_grid(rows: np.ndarray, primes: np.ndarray) -> np.ndarray:
    # one cached decider call per distinct prime
    out = np.empty(len(rows), np.int8)
    order = np.argsort(primes, kind="stable")
    distinct, starts = np.unique(primes[order], return_index=True)
    for p, sel in zip(distinct.tolist(), np.split(order, starts[1:])):
        out[sel] = _cubic_decider(p).decide_grid(rows[sel])
    return out


@functools.lru_cache(maxsize=None)
def diagonal_cubics() -> FamilyDescriptor:
    """The family y_0 x_0^3 + y_1 x_1^3 + y_2 x_2^3 + y_3 x_3^3 = 0."""
    return FamilyDescriptor(
        name="diagonal_cubics",
        n=3,
        A=3,
        theta=_cubic_theta,
        theta_grid=_cubic_theta_grid,
        digit_model=lambda v: _sign_model(_cubic_theta, 3) if v == INF else _cubic_decider(v).model,
        divisors=(),
    )


FAMILY_NAMES = ("diagonal_conics", "diagonal_cubics")


def family_by_name(name: str) -> FamilyDescriptor:
    # hyphens are accepted so command-line spellings work unchanged
    key = name.replace("-", "_")
    if key == "diagonal_conics":
        return diagonal_conics()
    if key == "diagonal_cubics":
        return diagonal_cubics()
    raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")


# ---------------------------------------------------------------------------
# omega: insoluble places of one fibre


def _candidate_places(family: FamilyDescriptor, coords: tuple[int, ...]) -> list[Place]:
    support: set[int] = set(int(p) for p in primes_up_to(family.A))
    # f is the coordinate product: factoring each coordinate beats factoring f(x)
    for v in coords:
        support.update(factorize(v))
    places: list[Place] = sorted(support)
    places.append(INF)
    return places


def omega_pi(
    family: FamilyDescriptor, x, S: Iterable[Place] = (INF,)
) -> ObstructionRecord:
    """All insoluble places of the fibre over x outside S, as a record.

    Candidate places are the primes up to the family bound A, the primes
    dividing f(x), and the real place; no other place can obstruct.  An
    undecided candidate marks the record tainted (its place is left out of
    the list).
    """
    point = x if isinstance(x, ProjPoint) else ProjPoint.from_vector(x)
    if not family.smooth(point):
        raise ValueError(f"fibre over {point} is singular")
    skip = set(S)
    bad: list[Place] = []
    tainted = False
    for v in _candidate_places(family, point.coords):
        if v in skip:
            continue
        try:
            if family.theta(point, v):
                bad.append(v)
        except Undecided:
            tainted = True
    return ObstructionRecord(point, tuple(bad), len(bad), tainted)


def omega_formula_conics(a: int, b: int, c: int) -> int:
    """Closed form for the conic family's omega at (a, b, c), S = {infinity}.

    Valid for pairwise coprime squarefree coefficients, each 1 mod 4:
    omega = sum over p | a of (1 - (bc|p))/2, plus the two symmetric sums.
    Each summand is 0 or 1, so the result is a plain count.
    """
    for v in (a, b, c):
        if v == 0 or any(e > 1 for e in factorize(v).values()):
            raise ValueError("coefficients must be nonzero and squarefree")
        if v % 4 != 1:
            raise ValueError("coefficients must be 1 mod 4")
    if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
        raise ValueError("coefficients must be pairwise coprime")
    total = 0
    for coeff, rest in ((a, b * c), (b, a * c), (c, -a * b)):
        for p in factorize(coeff):
            total += (1 - legendre(rest, p)) // 2
    return total


# ---------------------------------------------------------------------------
# sigma_p


def sigma_exact(family: FamilyDescriptor, p: int) -> Fraction:
    """Exact density of non-split fibres over P^n(F_p).

    Needs the family to carry a non-split classification (the conic family
    does); p must be an odd prime, the prime 2 is folded into the bad-prime
    bound instead.
    """
    p = int(p)
    if family.nonsplit is None:
        raise ValueError(
            f"{family.name} has no exact non-split test; use sigma_empirical"
        )
    if not is_prime(p):
        raise ValueError("p must be prime")
    if p == 2:
        raise ValueError("p = 2 is excluded from the residue classification")
    count = sum(1 for cls in residue_classes(family.n, p) if family.nonsplit(cls.coords, p))
    return Fraction(count, proj_size(family.n, p))


@dataclass(frozen=True)
class DiskDensityEstimate:
    """Monte Carlo estimate of the insoluble-disk density at one prime."""

    prime: int
    depth: int
    sample_size: int
    value: float
    standard_error: float
    unknown_fraction: float


def sigma_empirical(
    family: FamilyDescriptor,
    p: int,
    sample_size: int,
    precision_depth: int,
    seed: int = 0,
) -> DiskDensityEstimate:
    """Sample residue disks mod p^depth and measure the insoluble fraction.

    Disks are uniform on primitive coefficient vectors mod p^depth.  A disk
    whose verdict is not constant across lifts (some coordinate vanishing
    to the full depth, or with valuation above depth - digit_model(p).margin,
    too shallow to pin the unit class) counts as unknown, as does an
    undecided verdict; unknowns are reported separately and not folded into
    the value.  The remaining disks are decided by digit_model(p).grid.
    A modulus past int64 (disk_modulus) or disks whose rows exceed physical
    memory raise SizeRefused before any draw.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be at least 1")
    if precision_depth < 1:
        raise ValueError("precision_depth must be at least 1")
    if not is_prime(p):
        raise ValueError("p must be prime")
    M = disk_modulus(p, precision_depth)
    m = family.n + 1
    check_fits_in_memory(sample_size * m * 8, f"{sample_size} disks")
    rng = np.random.default_rng(seed)
    rows = np.empty((0, m), dtype=np.int64)
    while len(rows) < sample_size:
        batch = rng.integers(0, M, size=(2 * (sample_size - len(rows)) + 8, m))
        # the first primitive rows of the batch, as many as are still wanted
        keep = np.flatnonzero((batch % p).any(axis=1))[: sample_size - len(rows)]
        rows = np.concatenate([rows, batch[keep]])

    model = family.digit_model(p)
    # valuation(v) <= depth - margin, and v != 0, iff p^(depth - margin + 1) does not divide v
    stable = p ** max(0, precision_depth - model.margin + 1)
    decided = rows[(rows % stable).all(axis=1)]
    verdicts = model.grid(decided)
    insoluble = int((verdicts == 1).sum())
    unknown = sample_size - len(decided) + int((verdicts == 2).sum())
    q = insoluble / sample_size
    return DiskDensityEstimate(
        prime=p,
        depth=precision_depth,
        sample_size=sample_size,
        value=q,
        standard_error=math.sqrt(q * (1 - q) / sample_size),
        unknown_fraction=unknown / sample_size,
    )


def disk_modulus(p: int, depth: int) -> int:
    """p^depth, below which sigma_empirical draws int64 disks; SizeRefused at 2^62 or more."""
    M = int(p) ** int(depth)
    if M >= 1 << 62:
        raise SizeRefused(f"disks mod {p}^{depth} are too large to sample: p^depth >= 2^62")
    return M


def _conic_sigma_terms(p):
    """sigma_p = 3(p+1) / (2(p^2+p+1)) for odd primes p, as (numerator, denominator).

    Non-split fibres over P^2(F_p) are the three coordinate vertices plus,
    on each of the three coordinate lines, the (p-1)/2 points failing the
    residue condition: 3 + 3(p-1)/2 = 3(p+1)/2 of the p^2+p+1 points.  p is
    a Python int (exact at any size) or an int64 array (exact for p < 2^31).
    """
    return 3 * (p + 1), 2 * (p * p + p + 1)


def conic_sigma_formula(p: int) -> Fraction:
    """The conic family's sigma_p hook at one odd prime, as a Fraction.

    Validated against the exhaustive classification for every odd p up to 97.
    """
    p = int(p)
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime")
    return Fraction(*_conic_sigma_terms(p))


def insoluble_density(family: FamilyDescriptor, p: int) -> Fraction:
    """Exact Haar density of coefficient vectors whose fibre has no Q_p-point.

    The sum of the digit-mass products of family.digit_model(p)'s insoluble
    codes, over the codes whose digits all have mass; one undecided such
    code raises Undecided.  Verdicts are invariant under a common scaling,
    so this is also the density over primitive vectors (sigma_empirical's).
    """
    p = int(p)
    if not is_prime(p):
        raise ValueError("p must be prime")
    model = family.digit_model(p)
    masses = np.array(model.masses, dtype=object)
    rows = _code_digits(model.base, family.n + 1)
    rows = rows[(masses != 0)[rows].all(axis=1)]
    verdicts = model.verdicts(model.code(rows.T))
    if (verdicts == 2).any():
        raise Undecided(rows[verdicts == 2][0].tolist(), p, "digits of an undecided code")
    # an empty object sum is the int 0
    return Fraction(masses[rows[verdicts == 1]].prod(axis=1).sum())


def conic_insoluble_density(p: int) -> Fraction:
    """Exact Haar density of p-adically insoluble conics a x^2+b y^2 = c z^2.

    This is the disk-level insolubility probability (what sigma_empirical
    estimates), not the residue proxy sigma_p: the two differ by O(1/p^2)
    per prime.  It is insoluble_density of the conic family, an exact
    rational at every prime.
    """
    return insoluble_density(diagonal_conics(), p)


# ---------------------------------------------------------------------------
# calibration of the bad-prime bound A


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of an exhaustive scan for obstructed primes not dividing f.

    A is the largest prime (default 1) with an exception; all exceptional
    pairs lie at primes <= A by construction.  exception_counts gives the
    full per-prime tally, witnesses a capped sample of pairs, undecided the
    primes whose certification was aborted by an undecided verdict (with
    one diagnostic point each).
    """

    A: int
    exception_counts: dict[int, int]
    witnesses: tuple[tuple[ProjPoint, int], ...]
    undecided: dict[int, ProjPoint]


_WITNESS_CAP = 64


def _units_can_obstruct(family: FamilyDescriptor, p: int) -> bool:
    # is some code of unit digits alone not soluble?  A unit's digit is
    # fixed by its residue mod p^margin.
    model = family.digit_model(p)
    units = np.arange(1, p**model.margin + 1)
    is_unit = np.zeros(model.base, bool)
    is_unit[model.digits(units[units % p != 0])] = True
    rows = _code_digits(model.base, family.n + 1)
    rows = rows[is_unit[rows].all(axis=1)]
    return bool(model.verdicts(model.code(rows.T)).any())


def calibrate_A(family: FamilyDescriptor, p_max: int, B_cal: int) -> CalibrationReport:
    """Smallest bound A such that no tested prime p in (A, p_max] with
    p not dividing f(x) obstructs any smooth fibre of height <= B_cal.

    Exhaustive over all points of P^n(Q) with height <= B_cal.  A prime
    whose unit-digit codes are all soluble cannot obstruct a row coprime
    to it and is skipped; each other prime is decided by digit_model(p).grid
    on each slab's rows coprime to p.  The result reports every exception
    found (all at primes <= A).
    """
    if p_max < 2 or B_cal < 1:
        raise ValueError("need p_max >= 2 and B_cal >= 1")
    primes = [p for p in primes_up_to(p_max).tolist() if _units_can_obstruct(family, p)]
    counts: dict[int, int] = {}
    witnesses: list[tuple[ProjPoint, int]] = []
    undecided: dict[int, ProjPoint] = {}

    for slab in point_slabs(family.n, B_cal):
        rows = slab[(slab != 0).all(axis=1)]
        if len(rows) == 0:
            continue
        for p in primes:
            cand = rows[(rows % p != 0).all(axis=1)]
            if len(cand) == 0:
                continue
            verdicts = family.digit_model(p).grid(cand)
            bad_rows = cand[verdicts == 1]
            und_rows = cand[verdicts == 2]
            if len(und_rows) and p not in undecided:
                undecided[p] = ProjPoint.from_vector(und_rows[0])
            if len(bad_rows):
                counts[p] = counts.get(p, 0) + len(bad_rows)
                for row in bad_rows[: max(0, _WITNESS_CAP - len(witnesses))]:
                    witnesses.append((ProjPoint.from_vector(row), p))
    A = max(counts, default=1)
    return CalibrationReport(A, counts, tuple(witnesses), undecided)
