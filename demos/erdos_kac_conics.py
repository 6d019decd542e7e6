"""
The normal law for conic obstruction counts
===========================================

Sampling points of height up to B, the count of insoluble primes has mean
and variance growing like (3/2) log log B.  That double log crawls, so at
desk scale the convergence shows up as a trend: the KS distance to the
normal law falls as B climbs.
"""

import math
from fractions import Fraction

import numpy as np

from fibstat.families import diagonal_conics
from fibstat.stats import gaussian_distance, moment_series, sample_records, standardized_values

fam = diagonal_conics()
DELTA = Fraction(3, 2)
N = 20_000
SEED = 12

# ----------------------------------------------------------------------
# The trend: KS distance to the standard normal, empirically centered.

sets = {}
for B in (10**3, 10**4, 10**5):
    sets[B] = sample_records(fam, B, N, SEED, threads=2)
    ks = gaussian_distance(sets[B], DELTA, centering="empirical")
    llB = math.log(math.log(B))
    print(f"B = 10^{round(math.log10(B))}: log log B = {llB:.3f}, KS = {ks:.4f}")

# ----------------------------------------------------------------------
# Moments at the top bound.  The first moment is near zero because the
# centering sum_{p<=B} sigma_p tracks the true mean; the second sits well
# below 1 at these heights (bounded coordinates cannot carry two large
# primes at once, which suppresses the variance).

B = 10**5
for rep in moment_series(sets[B], B, DELTA, 4, centering="empirical"):
    print(f"  M_{rep.r} = {rep.value:+.4f}   (normal reference {rep.mu_r_reference:.1f})")

# ----------------------------------------------------------------------
# The standardized histogram against the bell curve, as text.

z = standardized_values(sets[B], DELTA, centering="empirical")
counts, edges = np.histogram(z, bins=17, range=(-3.5, 3.5))
density = counts / (len(z) * (edges[1] - edges[0]))
for i, d in enumerate(density):
    mid = (edges[i] + edges[i + 1]) / 2
    bell = math.exp(-mid * mid / 2) / math.sqrt(2 * math.pi)
    bar = "#" * int(round(d * 120))
    print(f"{mid:+5.1f} | {bar:<55s} model {bell:.3f}, seen {d:.3f}")
