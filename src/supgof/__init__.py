"""supgof: sup-norm goodness-of-fit testing for count data.

Library layout:

* :mod:`supgof.special` -- deviation exponent ``h``, its inverse, the rate
  surrogate, and Bennett-type tail bounds.
* :mod:`supgof.model` -- null/data containers and exact samplers for the
  Poisson-product, multinomial, and Poissonized-multinomial models.
* :mod:`supgof.rates` -- local separation rates, critical index, perturbation
  size, and regime diagnostics.
* :mod:`supgof.maxtest` -- the max-deviation test, the multinomial head/tail
  tests, and their calibration.
* :mod:`supgof.divergence` -- exact truncated-enumeration and closed-form
  divergences plus the conditional chi-square bound evaluators.
* :mod:`supgof.priors` -- two-point and mixture lower-bound constructions and
  the flattening reduction.
* :mod:`supgof.risk` -- Monte Carlo risk estimation and sharp-constant sweeps.
* :mod:`supgof.cli` -- command-line entry point.
"""

__version__ = "0.1.0"
