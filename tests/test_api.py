import pcmix

# Every public name of the package.  A change that adds or removes one edits
# this list and states the name in CHANGES.md.
PUBLIC_NAMES = [
    "ALL_IDS", "AUDIT_IDS", "CATALOGUE", "CORE_IDS", "DEFAULT_GRID", "Grid",
    "NotDelta", "NotInvertible", "OrderExhausted", "OrderMismatch", "ParameterError",
    "Poly", "Series", "SeriesError", "ShefferPair", "VerificationResult", "X",
    "bernoulli_order", "bernoulli_poly", "binomial_pow", "catalogue_pairs",
    "cauchy_first", "cauchy_second", "connection_coefficients", "exp_neg_series",
    "exp_series", "exp_xt", "falling_poly", "families", "frobenius_euler",
    "frobenius_number", "identities", "lif_series", "log1p_scaled", "mixed_hat_pair",
    "mixed_pair", "one_series", "operator_apply", "pc_hat_mixed", "pc_mixed",
    "poisson_charlier", "poly", "poly_cauchy_first", "poly_cauchy_second",
    "recurrence_next", "rising_poly", "series", "sheffer", "special", "stirling1",
    "stirling2", "t_series", "verify", "verify_grid",
]


def test_public_surface_is_pinned():
    assert sorted(pcmix.__all__) == PUBLIC_NAMES
