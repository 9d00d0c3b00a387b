"""Lower-bound certificates: exact Bayes risk of the hard alternatives.

Every lower bound here is an exact computation, not a simulation:

1. the constant-order two-point bound via the exact TV between shifted
   Poisson products;
2. the spike-prior bound after flattening to a homoskedastic pair, whose
   TV is computed exactly through the sufficient statistic of the mixture;
3. the flattening inequality itself, verified numerically on an instance;
4. the simplex prior, whose draws show the add-one/remove-m structure.
"""

import numpy as np

from supgof.divergence import (
    poisson_mixture,
    poisson_product_dist,
    tv_distance,
    tv_poisson_uniform_spike,
)
from supgof.model import RateVector, SimplexVector
from supgof.priors import (
    MultinomialSimplexPrior,
    PoissonSpikePrior,
    certified_poisson_spike_c,
    certified_simplex_c,
    draw_multinomial_simplex_prior,
    verify_flattening,
)

eta = 0.5
c = (1.0 - eta) ** 2
print(f"=== Two-point bound at eta = {eta} (separation c = {c}) ===")
mu = [1.0, 1.0]
tv = tv_distance(poisson_product_dist(mu), poisson_mixture([1.0], [[1.0 + c, 1.0]]))
print(f"exact Bayes risk = {1 - tv.value:.4f} (+/- {tv.error_bar:.1e}) >= eta = {eta}")

print()
print("=== Spike prior on a flat null (p = 8), certified spike scale ===")
base = RateVector(np.ones(8))
c_star, certified = certified_poisson_spike_c(base, eta)
prior = PoissonSpikePrior.build(base, c_star)
print(f"j* = {prior.j_star}, psi = {prior.psi:.3f}, certified c = {c_star:.3f}")
print(f"exact flattened Bayes risk at spike {prior.spike:.3f}: {certified:.4f} >= {eta}")
print("risk as the spike grows (exact, via the sufficient statistic):")
for scale in (0.5, 1.0, 2.0, 4.0):
    tv = tv_poisson_uniform_spike(1.0, scale * prior.spike, 8)
    print(f"  spike x{scale:.1f}: TV = {tv.value:.4f}, Bayes risk = {1 - tv.value:.4f}")

print()
print("=== Flattening inequality on a heteroskedastic instance ===")
mu2 = RateVector([3.0, 1.5, 1.0])
sp = PoissonSpikePrior.build(mu2, 0.25)
weights, rows = sp.components()
report = verify_flattening(mu2, list(zip(weights, rows)), sp.j_star, float(mu2.rates[sp.j_star - 1]))
print(
    f"TV(original) = {report.lhs.value:.5f} <= TV(flattened) = "
    f"{report.rhs_head.value + report.rhs_tail.value:.5f}  (ok = {report.ok})"
)

print()
print("=== Simplex prior: add at one cell, remove from m others ===")
q0 = SimplexVector(np.full(12, 1.0 / 12))
n = 30.0
c_m = certified_simplex_c(q0, n)
sprior = MultinomialSimplexPrior.build(q0, n, c_m)
print(f"j* = {sprior.j_star}, m = {sprior.m}, certified c = {c_m:.3f}")
draw = draw_multinomial_simplex_prior(sprior, 7)[0]
moved = np.flatnonzero(~np.isclose(draw, q0.probs))
print(f"one draw moves cells {moved.tolist()}; sum = {draw.sum():.15f}")
