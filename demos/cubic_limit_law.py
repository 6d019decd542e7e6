"""
The discrete law for diagonal cubic surfaces
============================================

Four-coordinate fibres sum y_i x_i^3 have Delta = 0: almost all fibres are
everywhere locally soluble, and the count of obstructed primes settles into
a fixed distribution tau(j) instead of a growing normal law.

The scan is exact (every point of height <= B, deterministic p-adic
decisions); the prediction is an Euler product over Monte Carlo disk
densities.  Box effects make tau(1, B) climb slowly: a prime p can only
obstruct once coordinates can reach past p^2 or so.
"""

import math

from fibstat.families import diagonal_cubics
from fibstat.stats import (
    cubic_density_table,
    scan_tally,
    tau_histogram,
    tau_limit_prediction,
)

fam = diagonal_cubics()

# ----------------------------------------------------------------------
# Exhaustive scans at growing height bounds, tallied per count with no
# per-point column (the B = 30 one takes under a second; push to 40 or 60
# for the acceptance-grade numbers).

for B in (12, 20, 30):
    tally = scan_tally(fam, B)
    th = tau_histogram(tally)
    cond = {j: c / tally.untainted_count for j, c in sorted(th.counts.items())}
    shown = ", ".join(f"tau({j}) = {v:.5f}" for j, v in cond.items())
    print(f"B = {B:2d}: {tally.point_count:>9d} points, {shown}")

# ----------------------------------------------------------------------
# The limit prediction: prod_p ((1 - q_p) + q_p z) with q_p the insoluble
# disk density, Monte Carlo per prime.  Only p = 3 and p = 1 mod 3 can
# obstruct, and q_p decays like 1/p^2.

table = cubic_density_table(50, sample_size=8_000, seed=11)
nonzero = {p: est for p, est in table.items() if est.value > 0}
for p, est in sorted(nonzero.items()):
    print(f"  q_{p} = {est.value:.5f} +- {est.standard_error:.5f}")

for j in range(4):
    pred = tau_limit_prediction(fam, j, 50, table)
    print(f"tau({j}) -> {pred.value:.5f} +- {pred.std_error:.5f}"
          f"  (tail bound {pred.tail_bound:.3f})")

# ----------------------------------------------------------------------
# Moment identity: the histogram and the direct power means are the same
# rational numbers, no floating point involved.

from fractions import Fraction

from fibstat.stats import n_moments

tally = scan_tally(fam, 12)
th = tau_histogram(tally)
for r in (1, 2, 3):
    via = sum(Fraction(j**r) * m for j, m in th.masses.items())
    via *= Fraction(th.point_count, tally.untainted_count)
    print(f"r = {r}: n_moments = {n_moments(tally, r)} == histogram sum {via}")
