"""Small integer-arithmetic helpers shared across the package.

Sieves, factorization, Moebius values and deterministic primality for the
word-sized integers the rest of the library throws around.  Everything here
returns plain Python ints (or numpy arrays where documented); nothing is
probabilistic.  check_fits_in_memory is the one guard that refuses arrays
above physical memory before they are allocated; it raises SizeRefused.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache

import numpy as np

__all__ = [
    "primes_up_to",
    "smallest_prime_factors",
    "moebius_up_to",
    "factorize",
    "prime_support",
    "jacobi",
    "is_prime",
    "valuation",
    "check_fits_in_memory",
    "SizeRefused",
]


@lru_cache(maxsize=1)
def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as a read-only int64 array (empty for n < 2).

    The last result is kept, so callers asking for the same bound in turn
    (the classic omega sieve, then its sigma prefix table) share one sieve;
    it is read-only because it is shared.  A sieve above physical memory
    raises SizeRefused before anything is allocated.
    """
    if n < 2:
        primes = np.zeros(0, dtype=np.int64)
    else:
        # the bool sieve, then the int64 primes (pi(n) < 1.26 n / log n)
        check_fits_in_memory(n + 1 + 8 * int(1.26 * n / math.log(n)), f"the primes up to {n}")
        sieve = np.ones(n + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.nonzero(sieve)[0].astype(np.int64, copy=False)
    primes.flags.writeable = False
    return primes


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[m] = least prime factor of m for 2 <= m <= n (spf[0] = spf[1] = 0)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    if n < 2:
        return spf
    spf[2::2] = 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if spf[p] == 0:
            spf[p * p :: 2 * p] = np.where(spf[p * p :: 2 * p] == 0, p, spf[p * p :: 2 * p])
    odd = np.arange(3, n + 1, 2)
    unset = odd[spf[odd] == 0]
    spf[unset] = unset
    return spf


def moebius_up_to(n: int) -> np.ndarray:
    """mu[k] for 0 <= k <= n as int8 via a squarefree sieve (mu[0] = 0).

    A column above physical memory raises SizeRefused before it is allocated.
    """
    check_fits_in_memory(n + 1, f"the Moebius function up to {n}")
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    if n < 2:
        return mu
    primes = primes_up_to(n)
    for p in primes:
        mu[p::p] *= -1
        sq = p * p
        if sq <= n:
            mu[sq::sq] = 0
    return mu


def _pollard_rho(n: int) -> int:
    # Pollard rho with Floyd cycle detection on x -> x^2 + c; n must be an odd composite.
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


_SPF_CACHE_LIMIT = 1 << 20
_spf_cache: np.ndarray | None = None
_spf_lock = threading.Lock()


def _spf(top: int) -> np.ndarray:
    """A smallest-prime-factor table covering every value <= top (top <= the limit).

    The table is sized to the next power of two above top, capped at
    _SPF_CACHE_LIMIT, and grows under the lock when a larger top is asked
    for.  Callers keep the reference returned, which covers their own top
    even if another thread grows the cache meanwhile.
    """
    global _spf_cache
    table = _spf_cache
    if table is None or len(table) <= top:
        # sampler threads reach this together; build each size once
        with _spf_lock:
            if _spf_cache is None or len(_spf_cache) <= top:
                size = min(1 << top.bit_length(), _SPF_CACHE_LIMIT)
                _spf_cache = smallest_prime_factors(size)
            table = _spf_cache
    return table


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}.

    factorize(0) raises ValueError, as does a cofactor that is_prime cannot decide.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    n = abs(n)
    out: dict[int, int] = {}
    if n < 2:
        return out
    if n <= _SPF_CACHE_LIMIT:
        spf = _spf(n)
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # strip small primes first so rho only sees hard composites
        reduced = False
        for p in (2, 3, 5, 7, 11, 13):
            if m % p == 0:
                out[p] = out.get(p, 0) + 1
                stack.append(m // p)
                reduced = True
                break
        if reduced:
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def prime_support(values) -> tuple[np.ndarray, np.ndarray]:
    """Distinct primes dividing each |values[i]|, as (index, prime) int64 pairs.

    The pairs are sorted by index, then by prime; an entry of +-1 yields
    none, a 0 raises ValueError.  Entries up to _SPF_CACHE_LIMIT are read
    off a smallest-prime-factor table sized to the largest of them, by
    repeated gathers; larger ones go through factorize.
    """
    values = np.abs(np.asarray(values, dtype=np.int64).ravel())
    if not values.all():
        raise ValueError("0 has no prime support")
    small = values <= _SPF_CACHE_LIMIT
    idx = np.flatnonzero(small & (values > 1))
    spf = _spf(int(values[idx].max()) if idx.size else 1)
    rest = values[idx]
    last = np.zeros(len(idx), np.int64)
    idxs, primes = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    # each pass divides out one prime factor; a repeat of the previous one is not new
    while idx.size:
        p = spf[rest]
        new = p != last
        idxs.append(idx[new])
        primes.append(p[new])
        rest //= p
        live = rest > 1
        idx, rest, last = idx[live], rest[live], p[live]
    for i in np.flatnonzero(~small).tolist():
        ps = sorted(factorize(int(values[i])))
        idxs.append(np.full(len(ps), i, np.int64))
        primes.append(np.array(ps, np.int64))
    index, prime = np.concatenate(idxs), np.concatenate(primes)
    # passes emit each index's primes in increasing order, so a stable sort suffices
    order = np.argsort(index, kind="stable")
    return index[order], prime[order]


_TWO_ODD_POWERS = 0x2AAAAAAAAAAAAAAA  # bits 1, 3, ..., 61: 2^e with e odd


def jacobi(a, n) -> np.ndarray:
    """Jacobi symbol (a|n) elementwise, for int64 arrays with n odd and positive.

    Any a is accepted, negative or divisible by n.  Each step takes a
    remainder, halves, or swaps the pair, so no value exceeds max(|a|, n)
    and nothing overflows int64.
    """
    a, n = np.broadcast_arrays(np.asarray(a, np.int64), np.asarray(n, np.int64))
    if (n % 2 == 0).any() or (n < 1).any():
        raise ValueError("Jacobi symbol needs an odd positive modulus")
    shape = a.shape
    a = a.ravel() % n.ravel()
    n = n.ravel().copy()
    out = np.zeros(a.size, np.int64)
    pos = np.arange(a.size)
    flip = np.zeros(a.size, bool)  # the sign so far is -1
    while pos.size:
        # (0|n) is 1 for n = 1 and 0 otherwise; out already holds the 0s
        live = np.flatnonzero(a)
        if len(live) < len(a):
            one = (a == 0) & (n == 1)
            out[pos[one]] = np.where(flip[one], -1, 1)
            pos, a, n, flip = pos[live], a[live], n[live], flip[live]
        # strip a's factors of 2 at once: (2|n) = -1 iff n = 3, 5 mod 8
        low = a & -a
        a //= low
        r8 = n & 7
        flip ^= ((low & _TWO_ODD_POWERS) != 0) & ((r8 == 3) | (r8 == 5))
        # reciprocity for odd a, n
        flip ^= (a & n & 3) == 3
        a, n = n % a, a
    return out.reshape(shape)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the prime Miller-Rabin bases up to 37 are proven exact below this bound
_MR_PROVEN_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases up to 37.

    Exact for n < 318,665,857,834,031,151,167,461 (about 3.2e23, far above
    2^64); at or above that bound those bases are no proof, so n raises
    ValueError instead of getting a guess.
    """
    if n < 2:
        return False
    if n >= _MR_PROVEN_BOUND:
        raise ValueError(f"{n} is past the proven Miller-Rabin bound {_MR_PROVEN_BOUND}")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0; raises on n = 0."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class SizeRefused(ValueError):
    """A run's settings ask for more than physical memory or int64 holds.

    Raised before anything of that size is allocated or drawn; the CLI
    reports it as a configuration error (exit 2).
    """


def check_fits_in_memory(nbytes: int, what: str) -> None:
    """Raise SizeRefused when nbytes of arrays for `what` exceed physical memory."""
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise SizeRefused(f"{what} needs {nbytes / 1e9:.1f} GB, above physical memory")
