"""Rational points of bounded height on projective space, and their reductions.

A point of P^n(Q) is stored as its primitive integer vector with first nonzero
coordinate positive; its height is the sup-norm of that vector.  The module
enumerates all points of height <= B (one at a time, or in numpy slabs built
from one per-lead coprimality mask over the tail grid, which the exhaustive
scans share), counts them exactly (including counts restricted to congruence
classes mod a squarefree Q), and computes the size of P^n(Z/Q) for arbitrary
moduli.

Both exact counts are one Moebius inversion over the content k of integer
vectors, the sum of mu(k) g(B // k); the k sharing a quotient B // k form a run
lo..B // (B // lo), so g is called once per run, about 2 sqrt(B) times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .arith import factorize, moebius_up_to, prime_support

__all__ = [
    "ProjPoint",
    "ResidueClass",
    "cn",
    "proj_size",
    "enumerate_points",
    "lead_primes",
    "clear_imprimitive",
    "point_slabs",
    "count_points",
    "residue_classes",
    "reduce_point",
    "count_congruence",
]


def cn(n: int) -> float:
    """Leading density 2^n / zeta(n+1) of height-ordered points of P^n(Q)."""
    from scipy.special import zeta  # here, so importing projective leaves scipy out

    return 2.0**n / float(zeta(n + 1))


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n(Q) in canonical primitive form."""

    coords: tuple[int, ...]
    height: int

    @staticmethod
    def from_vector(vec) -> "ProjPoint":
        coords = tuple(int(v) for v in vec)
        if not coords or all(v == 0 for v in coords):
            raise ValueError("zero vector does not define a projective point")
        g = math.gcd(*coords)
        coords = tuple(v // g for v in coords)
        for v in coords:
            if v != 0:
                if v < 0:
                    coords = tuple(-w for w in coords)
                break
        return ProjPoint(coords, max(abs(v) for v in coords))

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "(" + ":".join(str(v) for v in self.coords) + ")"


def _canonical_residue(coords: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    # Scale by the unique unit making, for each p | modulus, the first coordinate
    # that is a unit mod p congruent to 1.  CRT glues the per-prime scalings.
    lam = 0
    mod_acc = 1
    for p in factorize(modulus):
        first = next((v % p for v in coords if v % p != 0), None)
        if first is None:
            raise ValueError("vector not primitive modulo %d" % p)
        # CRT: lam == first^-1 (mod p), lam == previous (mod mod_acc)
        step = pow(mod_acc, -1, p) * (pow(first, -1, p) - lam) % p
        lam = (lam + mod_acc * step) % (mod_acc * p)
        mod_acc *= p
    return tuple((lam * v) % modulus for v in coords)


@dataclass(frozen=True)
class ResidueClass:
    """A point of P^n(Z/Q), canonicalized up to unit scaling (Q squarefree)."""

    modulus: int
    coords: tuple[int, ...]

    @staticmethod
    def from_vector(vec, modulus: int) -> "ResidueClass":
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if any(e > 1 for e in factorize(modulus).values()):
            raise ValueError("residue classes require a squarefree modulus")
        coords = tuple(int(v) % modulus for v in vec)
        return ResidueClass(modulus, _canonical_residue(coords, modulus))


def proj_size(n: int, Q: int) -> int:
    """#P^n(Z/Q), multiplicative in Q; p^k contributes p^{n(k-1)}(p^{n+1}-1)/(p-1).

    Exact for every Q >= 1 (Python integers never overflow, so the result is
    always representable).
    """
    if n < 0 or Q < 1:
        raise ValueError("need n >= 0 and Q >= 1")
    size = 1
    for p, k in factorize(Q).items():
        size *= p ** (n * (k - 1)) * (p ** (n + 1) - 1) // (p - 1)
    return size


def enumerate_points(n: int, B: int) -> Iterator[ProjPoint]:
    """Stream every point of P^n(Q) with height <= B, each exactly once.

    Order: by the number of leading zero coordinates, then the (positive)
    leading coordinate, then the remaining coordinates lexicographically over
    [-B, B].  O(1) memory.
    """
    if n < 1 or B < 1:
        raise ValueError("need n >= 1 and B >= 1")
    for zeros in range(n + 1):
        tail_len = n - zeros
        for lead in range(1, B + 1):
            if tail_len == 0:
                if lead == 1:
                    yield ProjPoint((0,) * zeros + (1,), 1)
                continue
            for tail in itertools.product(range(-B, B + 1), repeat=tail_len):
                if math.gcd(lead, *tail) == 1:
                    coords = (0,) * zeros + (lead,) + tail
                    yield ProjPoint(coords, max(lead, max(abs(t) for t in tail)))


def lead_primes(B: int) -> list[list[int]]:
    """The primes dividing each lead a = 1..B, lead a at index a - 1."""
    index, prime = prime_support(np.arange(1, B + 1))
    return [ps.tolist() for ps in np.split(prime, np.searchsorted(index, np.arange(1, B)))]


def clear_imprimitive(mask: np.ndarray, B: int, primes: list[int]) -> np.ndarray:
    """mask over a tail grid [-B, B]^k, cleared in place where (lead, tail) is not primitive.

    Index k on an axis holds k - B.  primes are those of the lead
    (lead_primes); for each p it clears the strided slice B % p :: p on
    every axis, where p divides the whole tail.  Returns mask.
    """
    for p in primes:
        mask[(slice(B % p, None, p),) * mask.ndim] = False
    return mask


def point_slabs(n: int, B: int) -> Iterator[np.ndarray]:
    """Canonical primitive vectors of height <= B in numpy slabs (N, n+1).

    Same point set as enumerate_points, in its order, materialized
    slab-by-slab (one slab per leading coordinate value, the primitive
    tails of clear_imprimitive in grid order) for vectorized consumers.
    With no tail left only lead 1 is a point.
    """
    if n < 1 or B < 1:
        raise ValueError("need n >= 1 and B >= 1")
    primes_of = lead_primes(B)
    for zeros in range(n + 1):
        tail_len = n - zeros
        for lead in range(1, B + 1 if tail_len else 2):
            mask = clear_imprimitive(np.ones((2 * B + 1,) * tail_len, bool), B, primes_of[lead - 1])
            out = np.empty((np.count_nonzero(mask), n + 1), dtype=np.int64)
            out[:, :zeros] = 0
            out[:, zeros] = lead
            out[:, zeros + 1 :] = np.argwhere(mask) - B
            yield out


def _content_sum(B: int, g: Callable[[int], int], coprime_to: int = 1) -> int:
    """Sum of mu(k) g(B // k) over 1 <= k <= B coprime to coprime_to, one g call per run."""
    mu = moebius_up_to(B)
    for p in factorize(coprime_to):
        mu[::p] = 0
    total, lo = 0, 1
    while lo <= B:
        hi = B // (B // lo)
        total += int(mu[lo : hi + 1].sum(dtype=np.int64)) * g(B // lo)
        lo = hi + 1
    return total


def count_points(n: int, B: int) -> int:
    """Exact #{x in P^n(Q) : H(x) <= B}: half the content sum of g(T) = (2T + 1)^(n+1) - 1."""
    if n < 1 or B < 1:
        raise ValueError("need n >= 1 and B >= 1")
    total = _content_sum(B, lambda T: (2 * T + 1) ** (n + 1) - 1)
    assert total % 2 == 0
    return total // 2


def residue_classes(n: int, Q: int) -> list[ResidueClass]:
    """All points of P^n(Z/Q) for squarefree Q >= 2, in canonical form."""
    if Q < 2:
        raise ValueError("modulus must be >= 2")
    fac = factorize(Q)
    if any(e > 1 for e in fac.values()):
        raise ValueError("residue classes require a squarefree modulus")
    primes = sorted(fac)
    per_prime: list[list[tuple[int, ...]]] = []
    for p in primes:
        reps = []
        for i in range(n + 1):
            for tail in itertools.product(range(p), repeat=n - i):
                reps.append((0,) * i + (1,) + tail)
        per_prime.append(reps)
    classes = []
    for combo in itertools.product(*per_prime):
        coords = []
        for j in range(n + 1):
            x, acc = 0, 1
            for p, rep in zip(primes, combo):
                x = (x + acc * (pow(acc, -1, p) * (rep[j] - x) % p)) % (acc * p)
                acc *= p
            coords.append(x)
        classes.append(ResidueClass(Q, tuple(coords)))
    return classes


def reduce_point(point: ProjPoint, Q: int) -> ResidueClass:
    """Reduction of a point mod squarefree Q; primitivity is automatic."""
    return ResidueClass.from_vector(point.coords, Q)


def count_congruence(
    n: int, B: int, Q: int, predicate: Callable[[ResidueClass], bool]
) -> tuple[int, float, float]:
    """Exact count of height <= B points whose reduction mod Q satisfies predicate.

    It is half the content sum, over contents prime to Q, of the vectors in
    [-T, T]^(n+1) in the unit cone of a selected class.  Returns (count, main,
    rel): main is the density heuristic c_n * (#selected / #P^n(Z/Q)) * B^{n+1}
    and rel = |count - main| / main (0 when both vanish, inf if only main does).
    """
    if B < 2:
        raise ValueError("need B >= 2")
    classes = residue_classes(n, Q)
    selected = [cls for cls in classes if predicate(cls)]
    upsilon = len(selected)
    main = cn(n) * (upsilon / proj_size(n, Q)) * float(B) ** (n + 1)
    if upsilon == 0:
        return 0, main, 0.0
    units = [u for u in range(1, Q) if math.gcd(u, Q) == 1]
    cone = np.array([[(u * v) % Q for v in cls.coords] for cls in selected for u in units])

    def cone_vectors(T: int) -> int:
        # Python ints: one class's (T + 1)^(n+1) vectors pass 2^63 at n = 3, T = 10^5
        residue_counts = np.array([(T - c) // Q + (T + c) // Q + 1 for c in range(Q)], object)
        return int(residue_counts[cone].prod(axis=1).sum())

    total = _content_sum(B, cone_vectors, coprime_to=Q)
    assert total % 2 == 0
    count = total // 2
    rel = abs(count - main) / main if main > 0 else (0.0 if count == 0 else math.inf)
    return count, main, rel
