"""supgof: sup-norm goodness-of-fit testing for count data.

Library layout:

* :mod:`supgof.special` -- deviation exponent ``h``, its inverse, the rate
  surrogate, and the Bennett upper-tail bound.
* :mod:`supgof.model` -- null/data containers, seeded random streams, and
  the CSV count-table reader.
* :mod:`supgof.rates` -- local separation rates, critical index, perturbation
  size, and regime diagnostics.
* :mod:`supgof.maxtest` -- the max-deviation test, the multinomial head/tail
  tests, and their calibration.
* :mod:`supgof.divergence` -- exact truncated-enumeration and closed-form
  divergences, the exact spike-mixture TV, and the conditional chi-square
  bound and risk certificate.
* :mod:`supgof.priors` -- two-point and mixture lower-bound constructions and
  the flattening reduction.
* :mod:`supgof.risk` -- exact risk of the implemented tests (products of
  Poisson box probabilities; the fixed-n multinomial by Poisson
  conditioning) and sharp-constant sweeps.
* :mod:`supgof.cli` -- command-line entry point.
"""

__version__ = "0.1.0"
