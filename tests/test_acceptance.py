"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact rational comparison with zero tolerance.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines and
the grid timings.
"""

import json
import time
from fractions import Fraction as F
from math import comb

from click.testing import CliRunner

from pcmix.cli import main as cli_main
from pcmix.families import (
    catalogue_pairs,
    mixed_hat_pair,
    mixed_pair,
    pc_hat_mixed,
    pc_mixed,
)
from pcmix.identities import (
    AUDIT_IDS,
    CORE_IDS,
    DEFAULT_GRID,
    t3_polynomial,
    verify_grid,
)
from pcmix.poly import Poly, X
from pcmix.series import (
    Series,
    exp_neg_series,
    exp_series,
    log1p_scaled,
    one_series,
    t_series,
)
from pcmix.sheffer import (
    ShefferPair,
    connection_coefficients,
    operator_apply,
    recurrence_next,
)
from pcmix.special import lif_series, stirling1, stirling2

N_MAX = 10
ADDITION_SAMPLES = (F(0), F(1), F(-1), F(2), F(1, 2))


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_core_identity_suite():
    start = time.time()
    results = verify_grid(CORE_IDS, N_MAX, DEFAULT_GRID)
    elapsed = time.time() - start
    failures = [r for r in results if not r.equal]
    assert not failures, failures[:3]
    _report(
        "criterion 1 (core identity suite)",
        f"{len(results)} grid points equal exactly in {elapsed:.1f}s",
    )


def test_criterion_2_audit_suite():
    start = time.time()
    results = verify_grid(AUDIT_IDS, N_MAX, DEFAULT_GRID)
    elapsed = time.time() - start
    # The derivation form must hold everywhere; printed status is reported
    # without failing the build.
    broken = [r for r in results if not r.derivation_form]
    assert not broken, broken[:3]
    printed_fail: dict[str, int] = {}
    totals: dict[str, int] = {}
    for r in results:
        totals[r.identity] = totals.get(r.identity, 0) + 1
        if not r.as_printed:
            printed_fail[r.identity] = printed_fail.get(r.identity, 0) + 1
    status = ", ".join(
        f"{ident} {totals[ident] - printed_fail.get(ident, 0)}/{totals[ident]}"
        for ident in AUDIT_IDS
    )
    _report(
        "criterion 2 (audit suite)",
        f"derivation form holds at all {len(results)} points in {elapsed:.1f}s; "
        f"as-printed status: {status}",
    )


def test_criterion_3_route_equivalence():
    checked = 0
    for k in DEFAULT_GRID.k_values:
        for a in DEFAULT_GRID.a_values:
            pair = mixed_pair(k, a, 10)
            hat_pair = mixed_hat_pair(k, a, 10)
            for n in range(9):
                gf = pc_mixed(n, k, a)
                assert pair.polynomial(n) == gf, (n, k, a)
                assert t3_polynomial(n, k, a) == gf, (n, k, a)
                hat_gf = pc_hat_mixed(n, k, a)
                assert hat_pair.polynomial(n) == hat_gf, (n, k, a)
                assert t3_polynomial(n, k, a, hat=True) == hat_gf, (n, k, a)
                checked += 1
    _report(
        "criterion 3 (route equivalence)",
        f"generating function, Sheffer and explicit-formula routes agree at "
        f"{checked} (n, k, a) points, both kinds",
    )


def test_criterion_4_umbral_engine_properties():
    pairs = catalogue_pairs(12)
    for pair in pairs:
        associated = ShefferPair(one_series(pair.order), pair.f)
        for n in range(9):
            s_n = pair.polynomial(n)
            # Orthogonality: expanded over its own pair, s_n is a unit row.
            unit = [F(1) if m == n else F(0) for m in range(n + 1)]
            assert connection_coefficients(pair, pair, n) == unit, ("orthogonality", pair.label, n)
            if n >= 1:
                assert operator_apply(pair.f, s_n) == n * pair.polynomial(n - 1), (
                    "lowering", pair.label, n,
                )
            for y in ADDITION_SAMPLES:
                lhs = s_n.compose(Poly((y, 1)))
                rhs = Poly()
                for j in range(n + 1):
                    w = comb(n, j) * associated.polynomial(n - j)(y)
                    if w:
                        rhs = rhs + pair.polynomial(j) * w
                assert lhs == rhs, ("addition", pair.label, n, y)
        member = pair.polynomial(0)
        for n in range(8):
            member = recurrence_next(pair, member)
            assert member == pair.polynomial(n + 1), ("recurrence", pair.label, n)
    _report(
        "criterion 4 (umbral engine)",
        f"orthogonality, lowering, addition and recurrence hold for all "
        f"{len(pairs)} catalogued pairs up to degree 8",
    )


def test_criterion_5_series_kernel_properties():
    # Reversion round-trips, including the catalogued delta series and an
    # arbitrary unit-slope delta series.
    n = 9
    arbitrary = Series((0, 1, F(2, 3), -2, 0, F(7, 5), F(-1, 4), 3, F(1, 9)), n)
    for f in (
        t_series(n),
        exp_series(n) - one_series(n),
        (exp_neg_series(n) - one_series(n)) * F(3),
        (exp_series(n) - one_series(n)) * F(-5, 2),
        arbitrary,
    ):
        fbar = f.revert()
        assert fbar.compose(f) == t_series(n)
        assert f.compose(fbar) == t_series(n)
    assert exp_series(n).compose(log1p_scaled(1, n)) == one_series(n) + t_series(n)
    assert lif_series(1, n) * t_series(n) == exp_series(n) - one_series(n)
    for m in range(7):
        power = log1p_scaled(1, 12) ** m
        from math import factorial

        for l in range(12):
            expected = (
                F(factorial(m) * stirling1(l, m), factorial(l)) if l >= m else F(0)
            )
            assert power.coeffs[l].constant_value == expected
    for i in range(13):
        for j in range(13):
            total = sum(stirling1(i, r) * stirling2(r, j) for r in range(j, i + 1)) if j <= i else 0
            assert total == (1 if i == j else 0)
    for k in (0, 1, 2):
        for a in (F(1), F(3, 7)):
            log_a = log1p_scaled(a, n)
            composed = lif_series(k, n).compose(log_a)
            lhs = composed.derivative()
            multiplier = ((one_series(n) + t_series(n) * (1 / a)) * log_a * a).truncate(n - 1)
            rhs = (lif_series(k - 1, n).compose(log_a) - composed).truncate(n - 1)
            assert lhs * multiplier == rhs, (k, a)
    _report(
        "criterion 5 (series kernel)",
        "reversion round-trips, exp/log inversion, Lif bridge, Stirling "
        "bridge below order 12, Stirling orthogonality to 12 and the "
        "multiplied-through log-derivative identity all hold exactly",
    )


def test_criterion_6_cli_contract():
    runner = CliRunner()

    def invoke(*args):
        return runner.invoke(cli_main, args)

    table_args = (
        "table", "--family", "pc-mixed", "--k", "1", "--a", "1",
        "--n-max", "1", "--format", "json",
    )
    first = invoke(*table_args)
    assert first.exit_code == 0
    assert json.loads(first.output)["rows"][1]["coeffs"] == [[-1, 2], [-1, 1]]
    assert invoke(*table_args).output.encode() == first.output.encode()

    triangle = invoke("table", "--family", "stirling1", "--n-max", "3")
    assert triangle.exit_code == 0
    assert json.loads(triangle.output)["rows"][3]["coeffs"][1:] == [[2, 1], [-3, 1], [1, 1]]

    single = invoke("table", "--family", "bernoulli", "--r", "1", "--n-max", "0")
    assert single.exit_code == 0
    assert json.loads(single.output)["rows"] == [{"n": 0, "coeffs": [[1, 1]]}]

    core_run = invoke("verify", "--ids", "core", "--n-max", "6")
    assert core_run.exit_code == 0

    tiny = invoke("verify", "--ids", "T1", "--n-max", "0")
    assert tiny.exit_code == 0

    audit_args = ("verify", "--ids", "audit", "--n-max", "8", "--format", "json")
    audit_run = invoke(*audit_args)
    assert audit_run.exit_code == 0
    payload = json.loads(audit_run.output)
    assert all("as_printed" in r and "derivation_form" in r for r in payload["results"])
    assert invoke(*audit_args).output.encode() == audit_run.output.encode()

    assert invoke("table", "--family", "nope", "--n-max", "1").exit_code == 2

    # Round-trip: parse a table and re-evaluate the polynomial at x = 2.
    table = invoke(
        "table", "--family", "pc-hat-mixed", "--k", "-1", "--a", "3/7", "--n-max", "6"
    )
    for row in json.loads(table.output)["rows"]:
        value = sum(F(num, den) * F(2) ** i for i, (num, den) in enumerate(row["coeffs"]))
        assert value == pc_hat_mixed(row["n"], -1, F(3, 7))(F(2))
    _report(
        "criterion 6 (CLI contract)",
        "documented invocations return the stated exit codes with "
        "byte-deterministic output and exact JSON round-trips",
    )
