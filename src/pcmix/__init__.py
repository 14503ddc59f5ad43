"""Exact arithmetic for Poisson-Charlier / poly-Cauchy mixed-type polynomials.

The package is layered bottom-up:

* :mod:`pcmix.poly`, :mod:`pcmix.series`: exact polynomial and truncated
  power series kernel over rationals.
* :mod:`pcmix.special`: Stirling, Cauchy, Bernoulli and Frobenius-Euler
  number tables by recurrence and closed form, plus the Lif series.
* :mod:`pcmix.sheffer`: linear functionals, operators, Sheffer pairs.
* :mod:`pcmix.families`: the named polynomial families, read off their
  generating functions.
* :mod:`pcmix.identities`: exact verifiers for the catalogued identities,
  one per identity or first-/second-kind pair.
* :mod:`pcmix.cli`: the ``pcmix`` command.
"""

from .poly import Poly, X, monomial
from .series import (
    NotDelta,
    NotInvertible,
    OrderExhausted,
    OrderMismatch,
    Series,
    SeriesError,
    binomial_pow,
    constant_series,
    exp_neg_series,
    exp_series,
    exp_xt,
    log1p_scaled,
    one_series,
    t_series,
    zero_series,
)
from .special import (
    bernoulli_order,
    cauchy_first,
    cauchy_second,
    falling_poly,
    frobenius_number,
    lif_series,
    rising_poly,
    stirling1,
    stirling2,
)
from .sheffer import (
    ShefferPair,
    apply_functional,
    connection_coefficients,
    operator_apply,
    recurrence_next,
    transfer_check,
)
from .families import (
    bernoulli_poly,
    catalogue_pairs,
    frobenius_euler,
    mixed_hat_pair,
    mixed_pair,
    pc_hat_mixed,
    pc_mixed,
    poisson_charlier,
    poly_cauchy_first,
    poly_cauchy_second,
)
from .identities import (
    ALL_IDS,
    AUDIT_IDS,
    CATALOGUE,
    CORE_IDS,
    DEFAULT_GRID,
    Grid,
    ParameterError,
    VerificationResult,
    verify,
    verify_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
