"""The max-deviation tests in action: calibration and measured error rates.

The Poisson test rejects when some count strays further from its null mean
than a Bennett-calibrated threshold; the union bound spends 2/(C' j^2) per
coordinate, so C' = 2 pi^2/(3 eta) holds the Type I error below eta/2.  Its
acceptance region is a box of integer intervals, so its risk is computed
exactly.  The multinomial test splits into a Chebyshev test on the largest
cell plus the same max test on the remaining cells; it accepts on a box too,
and its fixed-n risk is exact as well: multinomial counts are independent
Poisson counts conditioned on their sum being n.
"""

import numpy as np

from supgof.maxtest import (
    MultinomialTestConfig,
    PoissonTestConfig,
    calibrate_poisson,
    multinomial_combined_test,
    poisson_max_test,
)
from supgof.model import CountVector, RateVector, SimplexVector
from supgof.rates import poisson_rate
from supgof.risk import estimate_multinomial_risk, estimate_poisson_risk

eta = 0.2
mu = RateVector(np.ones(200))
cfg = PoissonTestConfig.from_eta(mu, eta)
print(f"C'({eta}) = {calibrate_poisson(eta):.3f}; global threshold = {cfg.max_threshold:.3f}")

x_null = CountVector(np.ones(200, dtype=int))
x_alt = CountVector(np.r_[14, np.ones(199)].astype(int))
print("null-like data  ->", poisson_max_test(x_null, mu, cfg).label)
print("one spiked count ->", poisson_max_test(x_alt, mu, cfg).label)

print()
print("=== Exact risk against a single-coordinate spike ===")
psi = 1.0 + poisson_rate(mu).psi
for c_eta in (1.0, 2.0, 2.5, 3.0):
    lam = mu.rates.copy()
    lam[0] += c_eta * psi
    est = estimate_poisson_risk(mu, lam, eta, 10_000, seed=1)
    print(f"spike {c_eta:3.1f}*psi: type1 = {est.type1:.4f}  type2 = {est.type2:.4f}  total = {est.total:.4f}")

print()
print("=== Multinomial combined test (n=500, uniform on 50 cells) ===")
q0 = SimplexVector(np.full(50, 0.02))
n = 500
cfg_m = MultinomialTestConfig.from_eta(q0, n, eta)
print(f"head threshold = {cfg_m.head_threshold:.2f}; tail threshold = {cfg_m.max_tail_threshold:.2f}")
x = np.full(50, 10)
print("exact null counts ->", multinomial_combined_test(CountVector(x), q0, n, cfg_m).label)
x_bad = x.copy()
x_bad[7] += 40
x_bad[10:] -= 1  # keep the total at n
print("40-count tail bump ->", multinomial_combined_test(CountVector(x_bad), q0, n, cfg_m).label)

q_alt = q0.probs.copy()
q_alt[1] += 0.07
q_alt[3:] -= 0.07 / 47
est = estimate_multinomial_risk(q0, n, q_alt, eta, 10_000, seed=2)
print(
    f"exact risk at a +0.07 tail alternative: type1 = {est.type1:.4f}  "
    f"type2 = {est.type2:.4f}  total = {est.total:.4f}"
)
