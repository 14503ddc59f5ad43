import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import operator
from fractions import Fraction as F
from math import comb, factorial, perm
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from pcmix import cli, families, identities, special
from pcmix.cli import main
from pcmix.families import (
    falling_pair,
    mixed_hat_pair,
    mixed_pair,
    pc_hat_mixed,
    pc_mixed,
    rising_pair,
)
from pcmix.identities import (
    ALL_IDS,
    AUDIT_IDS,
    CATALOGUE,
    CORE_IDS,
    Grid,
    ParameterError,
    _plain,
    t3_polynomial,
    verify,
    verify_grid,
)
from pcmix.poly import Poly, X
from pcmix.series import Series, binomial_pow, exp_neg_series, exp_series
from pcmix.sheffer import connection_coefficients, operator_apply, recurrence_next

SINGLETON = Grid(
    a_values=(F(1),), k_values=(1,), s_values=(1,), lam_values=(F(2),)
)


def test_catalogue_is_closed():
    assert set(CORE_IDS) == {
        "T1", "P2", "E30", "E31", "T3", "T3H", "T4", "E41", "T5", "E48",
        "E49", "E50", "E51", "E52", "E68", "E69", "T8", "E74", "T9", "E77",
        "T10", "T10H",
    }
    assert set(AUDIT_IDS) == {"E54", "E55", "T6", "E60", "E61", "E62", "T7", "E67"}
    assert len(ALL_IDS) == 30


def test_t1_base_case():
    result = verify("T1", 0, k=1, a=1)
    assert result.equal and result.lhs is None and result.rhs is None


def test_t1_first_order_assembly():
    result = verify("T1", 1, k=1, a=1)
    assert result.equal
    assert pc_mixed(1, 1, 1) == Poly((F(-1, 2), -1))


def test_t10_cross_checked_against_connection_coefficients():
    # The Sheffer connection rows onto the rising (T10) and falling (T10H)
    # factorials against the weights C(n, m) step^-m P_(n-m)(0) that the
    # generating-function members give.
    for k in (-1, 2):
        for a in (F(3, 7), F(-5, 2)):
            routes = (
                ("T10", mixed_pair(k, a, 8), rising_pair(8), -a, pc_mixed),
                ("T10H", mixed_hat_pair(k, a, 8), falling_pair(8), a, pc_hat_mixed),
            )
            for ident, source, target, step, member in routes:
                assert verify(ident, 7, k=k, a=a).equal
                for n in range(8):
                    expected = [comb(n, m) * step ** -m * member(n - m, k, a)(F(0))
                                for m in range(n + 1)]
                    assert connection_coefficients(source, target, n) == expected, (ident, k, a, n)


def test_e51_shifted_argument_route():
    assert verify("E51", 3, k=2, a=F(3, 7)).equal


def test_shift_operators_give_the_e51_e52_left_side():
    # E51/E52 read the member at x -+ 1; applied as an operator, exp(-+t)
    # is that shift, so both routes give one left side.
    backward, forward = exp_neg_series(12), exp_series(12)
    for k in (-2, 0, 3):
        for a in (F(3, 7), F(-5, 2), F(2)):
            for n in range(12):
                p, q = pc_mixed(n, k, a), pc_hat_mixed(n, k, a)
                assert operator_apply(backward, p) == p.shifted(-1), (k, a, n)
                assert operator_apply(forward, q) == q.shifted(1), (k, a, n)


def test_t3_is_independent_route():
    for k, a in ((1, F(1)), (-2, F(3, 7))):
        for n in range(6):
            assert t3_polynomial(n, k, a) == pc_mixed(n, k, a)
            assert t3_polynomial(n, k, a, hat=True) == pc_hat_mixed(n, k, a)
            assert verify("T3", n, k=k, a=a).equal
            assert verify("T3H", n, k=k, a=a).equal


def _mixed_tail_series(k, a, hat, order):
    # exp(-t) * d/dt[Lif_k(+-log(1+t/a))] * (1+t/a)^(-+x), upper signs for the
    # first kind: the product-rule remainder term in the derivative-functional
    # split of the mixed generating function, built by the series kernel.
    power = binomial_pow(a, X if hat else -X, order)
    return exp_neg_series(order) * families.lif_log(k, a, hat, order + 1).derivative() * power


def test_t6_tail_series_is_the_printed_e54_tail():
    # Two routes to one polynomial that read no member: d/dt Lif_k(+-log(1+t/a))
    # brings out Lif_k', whose coefficients are 1/(m! (m+2)^k), so sign * a times
    # the remainder-tail series at t^n/n! is the printed offset-2 Stirling triple
    # sum of (54)/(55) at x + sign, sign = -1 for the second kind.  Hence the
    # derivation form of T6/E60 at n is the printed form of E54 at n - 1 (E61 and
    # E55 likewise), which is why their audit tallies coincide, and why the
    # checkers read that sum over sign * a, the tail of the group's recurrence
    # entry n + 1, as the derivation-form tail.
    for k in (-2, 0, 1, 3):
        for a in (F(1), F(3, 7), F(-5, 2), F(2)):
            group = identities._Group(k, a, 8)
            for hat, sign in ((False, 1), (True, -1)):
                series = _mixed_tail_series(k, a, hat, 8)
                printed = identities._stirling_triple_sum(group, hat, 2)
                for n in range(8):
                    tail = identities._monomial(group, n, hat, printed).shifted(sign)
                    assert series.egf_coefficient(n) * (sign * a) == tail, (k, a, hat, n)
                    assert group.recurrence(hat)[n + 1][2] * (sign * a) == tail, (k, a, hat, n)


def test_stirling_sum_verifiers_beyond_default_degree():
    # n = 14 lies past the default grid's n_max of 10; the point mixes a
    # negative k, a negative non-integer a, s > 1 and a lambda off the
    # integers.  T7/E67 at m = n reach the empty lowered moment.  T6, E60
    # and E61 at n = 9, 10 and 17 compare with the printed E54/E55 tail at
    # n - 1 = 8, 9 and 16.
    point = {"k": -2, "a": F(-5, 2)}
    with_s = {**point, "s": 2}
    cases = [(ident, 14, point) for ident in ("T3", "T3H", "T4", "E41", "E54", "E55")]
    cases += [("T8", 14, with_s), ("E74", 14, with_s)]
    cases += [(ident, 14, {**with_s, "lam": F(1, 2)}) for ident in ("T9", "E77")]
    cases += [(ident, 14, {**point, "m": m}) for ident in ("T7", "E67") for m in (14, 3)]
    cases += [(ident, n, point) for ident in ("T6", "E60", "E61") for n in (9, 10, 17)]
    for ident, n, params in cases:
        result = verify(ident, n, params)
        assert result.equal, (ident, n, params)
        if CATALOGUE[ident].tier == "audit":
            assert result.derivation_form, (ident, n, params)
            # T7's printed closing statement holds here only at m = n.
            printed = ident != "T7" or params["m"] == n
            assert result.as_printed == printed, (ident, n, params)


def test_bernoulli_expansions_beyond_default_degree():
    # k = 3 scales the Appell numbers (e+1)^-k by lcm(1..n+1)^3, and an odd n
    # with a = -5/2 puts an odd power of a negative numerator in the
    # denominator.  E49/E50 compare every factorial slice b_i(x) b_r(y), r <= n.
    cases = [(ident, n) for ident in ("T5", "E48") for n in (13, 24)]
    cases += [(ident, n) for ident in ("E49", "E50") for n in (14, 24)]
    for ident, n in cases:
        assert verify(ident, n, k=3, a=F(-5, 2)).equal, (ident, n)


def test_right_sides_read_their_inputs(monkeypatch):
    # A right side that compared something trivially equal would survive a
    # wrong input.  Change S1(3, 1) and S2(3, 1) in the rows this module
    # reads, then the Bernoulli and Frobenius-Euler numbers at index 3, then
    # one lower family member: every checker that reads it must fail.
    point = {"k": 2, "a": F(3, 7)}
    cases = dict.fromkeys(("T3", "T3H", "T4", "E41", "T5", "E48", "E49", "E50"), point)
    cases.update(dict.fromkeys(("T8", "E74"), {**point, "s": 2}))
    cases.update(dict.fromkeys(("T9", "E77"), {**point, "s": 2, "lam": F(1, 2)}))
    for ident, params in cases.items():
        assert verify(ident, 6, params).equal, ident

    def off_by_one(rows):
        def perturbed(n, second=False):
            table = [list(row) for row in rows(n, second)]
            table[3][1] += 1
            return table

        return perturbed

    with monkeypatch.context() as patch:
        patch.setattr(identities, "stirling_rows", off_by_one(identities.stirling_rows))
        for ident, params in cases.items():
            assert not verify(ident, 6, params).equal, ident

    with monkeypatch.context() as patch:
        for name in ("bernoulli_row", "frobenius_row"):
            def perturbed(n, *args, _row=getattr(identities, name)):
                return [v + (e == 3) for e, v in enumerate(_row(n, *args))]

            patch.setattr(identities, name, perturbed)
        for ident in ("T5", "E48", "T8", "E74", "T9", "E77"):
            assert not verify(ident, 6, cases[ident]).equal, ident

    # +1 at [t^3] of Lif_k in the members' generating functions only: the
    # T6/E60/E61 derivation form compares the remainder with a Stirling sum
    # that reads no member, so it must fail once the members move.
    with monkeypatch.context() as patch:
        def perturbed(k, order, _series=families.lif_series):
            return _series(k, order) + Series([int(j == 3) for j in range(order)], order)

        patch.setattr(families, "_TABLES", {})
        patch.setattr(families, "lif_series", perturbed)
        for ident in ("T6", "E60", "E61"):
            for n in range(4, 7):
                assert verify(ident, n, point).derivation_form is False, (ident, n)

    # T5 and E48 read no family member but the left side.
    lower = SimpleNamespace(
        pc_mixed=lambda n, k, a: pc_mixed(n, k, a) + (n == 2),
        pc_hat_mixed=lambda n, k, a: pc_hat_mixed(n, k, a) + (n == 2),
    )
    monkeypatch.setattr(identities, "fam", lower)
    for ident in ("T8", "E74", "T9", "E77", "E49", "E50"):
        assert not verify(ident, 6, cases[ident]).equal, ident
    # P_2 carries the weight S1(4, r) at y^r, r = 1..4: y^0 still holds.
    assert verify("E49", 6, point).note == "first failing coefficient of y^1"


def _lower_member_fault(monkeypatch) -> dict:
    # P_2 + 1 in both families at every k, planted as in
    # test_right_sides_read_their_inputs, every other family as it is; the
    # faulty lookup of each kind.
    lower = SimpleNamespace(**{
        **vars(families),
        "pc_mixed": lambda n, k, a: pc_mixed(n, k, a) + (n == 2),
        "pc_hat_mixed": lambda n, k, a: pc_hat_mixed(n, k, a) + (n == 2),
    })
    monkeypatch.setattr(identities, "fam", lower)
    return {False: lower.pc_mixed, True: lower.pc_hat_mixed}


_AUDIT_NOTES = {
    (True, True): "holds as printed and in derivation form",
    (False, True): "printed form fails; derivation form holds",
    (True, False): "holds as printed; derivation form fails",
    (False, False): "both forms fail",
}


def _fraction_sides(ident, n, k, a, member, appell) -> dict:
    # The result fields verify() must report for T1, P2, E49, E51, E68, T10,
    # T6, E60, E54 or a second-kind twin, from the printed formulas summed in
    # Fractions over coefficient lists of length n + 3.  ``member[hat]`` is
    # the family lookup and ``appell(n, values, numbers, signed)`` the Appell
    # expansion of the printed E54/E55 tail.
    hat = ident in ("E30", "E31", "E50", "E52", "E69", "T10H", "E61", "E62", "E55")
    size, sign, s1, fields = n + 3, -1 if hat else 1, special.stirling1, {}

    def cs(p):
        return [p.coefficient(j) for j in range(size)]

    def total(terms):  # sum of w * c over the pairs (c, w)
        return [sum((w * c[j] for c, w in terms), F(0)) for j in range(size)]

    def at(c, h):  # c(x + h), by the binomial theorem
        return [sum((comb(i, j) * F(h) ** (i - j) * c[i] for i in range(j, size)), F(0))
                for j in range(size)]

    def p(l, dk=0):
        return cs(member[hat](l, k + dk, a))

    lhs = p(n)
    if ident in ("T1", "E30", "P2", "E31"):
        cauchy = families.poly_cauchy_second if hat else families.poly_cauchy_first
        if ident in ("T1", "E30"):
            rhs = total([(cs(cauchy(l, k)), comb(n, l) * (-1) ** (n - l) * a**-l)
                         for l in range(n + 1)])
        else:  # the first kind reads the Poisson-Charlier polynomials at -x
            rhs = total([([c * (1 if hat else (-1) ** j)
                           for j, c in enumerate(cs(families.poisson_charlier(l, a)))],
                          comb(n, l) * cauchy(n - l, k)(0) * a ** (l - n)) for l in range(n + 1)])
    elif ident in ("E49", "E50"):
        # The y^r coefficients of P_n(x+y) and of sum_j C(n, j) (-+1/a)^(n-j)
        # b_(n-j)(y) P_j(x), b_m(y) rising (upper sign) or falling.
        step, top = F(1 if hat else -1) / a, lhs
        for r in range(n + 1):
            lhs = [comb(j + r, r) * top[j + r] if j + r < size else F(0) for j in range(size)]
            rhs = total([(p(j), comb(n, j) * step ** (n - j) * (1 if hat else (-1) ** (n - j - r))
                          * s1(n - j, r)) for j in range(n - r + 1)])
            if lhs != rhs:
                fields["note"] = f"first failing coefficient of y^{r}"
                break
    elif ident in ("E51", "E52"):
        lhs = [x - y for x, y in zip(at(lhs, -sign), lhs)]
        rhs = [F(n) / a * c for c in p(n - 1)]
        if hat:
            fields["note"] = ("checked with both difference terms in the second-kind family; "
                              "the printed statement drops a hat on the subtracted term")
    elif ident in ("E68", "E69"):
        lhs = [(j + 1) * c for j, c in enumerate(lhs[1:])] + [F(0)]
        rhs = total([(p(l), factorial(n) * (-1) ** n * F((-1) ** (l + hat), (n - l) * factorial(l))
                      * a ** (l - n)) for l in range(n)])
    elif ident in ("T10", "T10H"):
        basis = [[F(abs(s1(m, i)) if not hat else s1(m, i)) if i <= m else F(0)
                  for i in range(size)] for m in range(n + 1)]
        rhs = total([(basis[m], comb(n, m) * (a if hat else -a) ** -m * member[hat](n - m, k, a)(0))
                     for m in range(n + 1)])
    else:
        # The recurrence head -P_(t-1)(x) -+ (x/a) P_(t-1)(x+-1) at t = n, or
        # at t = n + 1 for E54/E55, plus the printed and derivation tails.
        lower = p(n if ident in ("E54", "E55") else n - 1)
        head = [-c - sign * x / a for c, x in zip(lower, [F(0)] + at(lower, sign))]
        if ident in ("E54", "E55"):
            lhs = p(n + 1)
            numbers = [(-1) ** e * F(e + 2) ** -k for e in range(n + 1)]
            tail = at(cs(appell(n, [(-1) ** l for l in range(n + 1)], numbers, not hat)), sign)
            printed = [h + sign * c / a for h, c in zip(head, tail)]
            # The operator Lif_k'(-t) / Lif_k(-t), t = d/dx, on P_n(x + sign).
            lif = [F((-1) ** m, factorial(m)) * F(m + 1) ** -k for m in range(size)]
            ratio = []
            for m in range(size):
                prime = F((-1) ** m, factorial(m)) * F(m + 2) ** -k
                ratio.append(prime - sum(lif[i] * ratio[m - i] for i in range(1, m + 1)))
            shifted = at(p(n), sign)
            split = [sum(ratio[d] * perm(j + d, d) * shifted[j + d] for d in range(size - j))
                     for j in range(size)]
            derived = [h + sign * c / a for h, c in zip(head, split)]
        else:
            shift = ident in ("E60", "E62")
            cauchy = special.cauchy_first if shift else special.cauchy_second
            weights = [comb(n, l) * cauchy(l, 1) * a**-l / n for l in range(n)]

            def row(l, dk):
                return at(p(l, dk), sign) if shift else p(l, dk)

            def stated(fixed):
                terms = [(row(n - 1 if fixed else n - l, -1), w) for l, w in enumerate(weights)]
                terms += [(row(n - l, 0), -w) for l, w in enumerate(weights)]
                return [h + c for h, c in zip(head, total(terms))]

            printed = stated(ident == "E62")
            tail = cs(_mixed_tail_series(k, a, hat, n).egf_coefficient(n - 1))
            derived = stated(False) if ident == "E62" else [h + c for h, c in zip(head, tail)]
        as_printed, derivation = lhs == printed, lhs == derived
        fields.update(note=_AUDIT_NOTES[as_printed, derivation], as_printed=as_printed,
                      derivation_form=derivation)
        rhs = derived
    audit = "as_printed" in fields
    equal = (fields["as_printed"] or fields["derivation_form"]) if audit else lhs == rhs
    sides = (None, None) if equal else (Poly(lhs), Poly(rhs))
    return {"note": None, "as_printed": None, "derivation_form": None, **fields,
            "equal": equal, "lhs": sides[0], "rhs": sides[1]}


def test_mismatch_reports_the_printed_right_side(monkeypatch):
    # Passing checks compare in a factorial basis and a failing one rebuilds
    # its sides, so the failure path runs other code.  With a lower member
    # wrong, each reported side must equal the printed formula, assembled
    # here in Fractions: sum_m c_m A_m(x) with c_m = sum_l C(n, l) S1(n-l, m)
    # a^-(n-l) V_l (negated at odd m for the first kind) and
    # A_m(x) = sum_j C(m, j) N_(m-j) x^j, or the T7/E67 moments.
    k, a, s, lam = 2, F(3, 7), 2, F(1, 2)
    member = _lower_member_fault(monkeypatch)
    s1 = special.stirling1

    def printed(n, values, numbers, signed):
        coeffs = [F(0)] * (n + 1)
        for m in range(n + 1):
            c = sum(comb(n, l) * s1(n - l, m) * a ** -(n - l) * values[l] for l in range(n - m + 1))
            for j in range(m + 1):
                coeffs[j] += (-1) ** (m * signed) * c * comb(m, j) * numbers[m - j]
        return Poly(coeffs)

    def sides(ident, n):
        hat = ident in ("T3H", "E41", "E74", "E77")
        at = {x0: [member[hat](l, k, a)(x0) for l in range(n + 1)] for x0 in range(s + 1)}
        if ident in ("T3", "T3H"):
            values = [(-1) ** l for l in range(n + 1)]
            numbers = [(-1) ** e * F(e + 1) ** -k for e in range(n + 1)]
        elif ident in ("T4", "E41"):
            values, numbers = at[0], [int(e == 0) for e in range(n + 1)]
        elif ident in ("T8", "E74"):
            cauchy = special.cauchy_second if hat else special.cauchy_first
            values = [sum(comb(l, i) * a**-i * cauchy(i, s) * at[s][l - i] for i in range(l + 1))
                      for l in range(n + 1)]
            numbers = [special.bernoulli_order(e, s) for e in range(n + 1)]
        else:
            if ident == "T9":
                step = -lam / ((1 - lam) * a)
                values = [sum(comb(s, i) * perm(l, i) * step**i * at[s][l - i]
                              for i in range(min(s, l) + 1)) for l in range(n + 1)]
            else:
                values = [sum(comb(s, i) * (-lam) ** (s - i) * at[i][l] for i in range(s + 1))
                          / (1 - lam) ** s for l in range(n + 1)]
            numbers = [special.frobenius_number(e, s, lam) for e in range(n + 1)]
        return member[hat](n, k, a), printed(n, values, numbers, not hat)

    failures = collections.Counter()
    for ident in ("T3", "T3H", "T4", "E41", "T8", "E74", "T9", "E77"):
        params = {"k": k, "a": a, **dict(zip(CATALOGUE[ident].axes[2:], (s, lam)))}
        for n in range(7):
            result = verify(ident, n, params)
            lhs, rhs = sides(ident, n)
            assert result.equal == (lhs == rhs), (ident, n)
            if not result.equal:
                failures[ident] += 1
                assert (result.lhs, result.rhs) == (lhs, rhs), (ident, n)
    assert set(failures) == {"T3", "T3H", "T4", "E41", "T8", "E74", "T9", "E77"}

    def moment(hat, q, j, x0, dk=0):
        # j! sum_l a^(l-q) C(q, l) S1(q-l, j) P_l^(k+dk)(x0).
        return factorial(j) * sum(
            a ** (l - q) * comb(q, l) * s1(q - l, j) * member[hat](l, k + dk, a)(x0)
            for l in range(q - j + 1)
        )

    for ident, hat in (("T7", True), ("E67", False)):
        edge = -1 if hat else 1
        for n in range(1, 7):
            for m in range(1, n + 1):
                direct, lowered = moment(hat, n, m, 0), moment(hat, n - 1, m, 0)
                edge_k = moment(hat, n - 1, m - 1, edge) * m / a
                edge_km1 = moment(hat, n - 1, m - 1, edge, -1) * m / a
                chained = -lowered + F(m - 1, m) * edge_k + edge_km1 / m
                last = edge_k if hat else edge_km1
                as_printed = direct + lowered == F(m - 1, m) * edge_k + last / m
                result = verify(ident, n, {"k": k, "a": a, "m": m})
                assert result.derivation_form == (direct == chained), (ident, n, m)
                assert result.as_printed == as_printed, (ident, n, m)
                if not result.equal:
                    failures[ident] += 1
                    sides_ = (Poly((direct,)), Poly((chained,)))
                    assert (result.lhs, result.rhs) == sides_, (ident, n, m)
    assert failures["T7"] and failures["E67"]

    # The checkers that sum integer weights over p^n or compare with the
    # kept recurrence remainders, against their printed formulas.
    weighted = ("T1", "E30", "P2", "E31", "E49", "E50", "E51", "E52", "E68", "E69", "T10",
                "T10H", "T6", "E60", "E61", "E62", "E54", "E55")
    for ident in weighted:
        for n in range(CATALOGUE[ident].n_min, 7):
            result = verify(ident, n, k=k, a=a)
            expected = _fraction_sides(ident, n, k, a, member, printed)
            assert {name: getattr(result, name) for name in expected} == expected, (ident, n)
            failures[ident] += not result.equal
    assert all(failures[ident] for ident in weighted), failures


def test_e54_derivation_side_is_the_sheffer_recurrence(monkeypatch):
    # The derivation form of (54)/(55) is the operator recurrence of the
    # mixed Sheffer pair, split into the head and the Lif-ratio operator.
    # With P_2 wrong, E54/E55 fail at n = 1 and 2, and the reported right
    # side must be s_(n+1) = (x - g'(t)/g(t)) (1/f'(t)) s_n on the faulty
    # P_n, from the pair's own series rather than from that split.
    member, failing = _lower_member_fault(monkeypatch), 0
    for k, a in itertools.product((-1, 2), (F(3, 7), F(-5, 2))):
        pairs = {False: mixed_pair(k, a, 12), True: mixed_hat_pair(k, a, 12)}
        for ident, hat in (("E54", False), ("E55", True)):
            for n in range(1, 11):
                result = verify(ident, n, k=k, a=a)
                if not result.equal:
                    failing += 1
                    expected = recurrence_next(pairs[hat], member[hat](n, k, a))
                    assert result.rhs == expected, (ident, k, a, n)
                    assert result.lhs == member[hat](n + 1, k, a), (ident, k, a, n)
    assert failing == 16


def test_recurrence_tail_reads_no_member(monkeypatch):
    # Entry n of the recurrence table keeps the printed (54)/(55) tail beside
    # the member-derived remainder D_n.  With P_2 wrong, every tail must equal
    # a fault-free group's, while D_2 and D_3, which read P_2, differ.
    points = list(itertools.product((False, True), (-1, 2), (F(3, 7), F(-5, 2))))
    clean = {(hat, k, a): identities._Group(k, a, 8).recurrence(hat) for hat, k, a in points}
    _lower_member_fault(monkeypatch)
    for hat, k, a in points:
        faulty = identities._Group(k, a, 8).recurrence(hat)
        assert [entry[2] for entry in faulty[1:]] == [entry[2] for entry in clean[hat, k, a][1:]]
        differ = [n for n in range(1, 9) if faulty[n][0] != clean[hat, k, a][n][0]]
        assert differ == [2, 3], (hat, k, a)


def test_published_tables_cannot_be_written():
    # Every shared table is a tuple, so a caller that writes into a row it was
    # given fails at once instead of corrupting the checks that read it later.
    pc_mixed(3, 1, F(2))
    tables = [special.stirling_rows(12), special.stirling_rows(12, True)[4],
              special.cauchy_row(12, 1), special.cauchy_row(12, 2, True),
              special.bernoulli_row(12, 1), special.frobenius_row(12, 2, F(1, 2)),
              families._TABLES["pc-mixed", 1, F(2)]]
    for table in tables:
        with pytest.raises(TypeError):
            table[2] = table[2]
    assert verify("T8", 3, k=1, a=2, s=1).equal
    assert verify("T5", 3, k=1, a=2).equal


def test_kept_tables_live_per_group(monkeypatch):
    # A group keeps what its checks build, and verify_grid builds one group
    # per (k, a) on every call: a fault planted after a clean sweep in the
    # same process must still be caught by every identity.
    grid = dataclasses.replace(
        SINGLETON, k_values=(2,), a_values=(F(3, 7),), lam_values=(F(1, 2),)
    )
    assert all(r.equal for r in verify_grid(ALL_IDS, 6, grid))
    _lower_member_fault(monkeypatch)
    assert {r.identity for r in verify_grid(ALL_IDS, 6, grid) if not r.equal} == set(ALL_IDS)


def test_members_round_trip_through_the_factorial_bases():
    # Each member taken to its kind's basis through S2, the rising one for
    # the first kind and the falling one for the second, and back through S1
    # (|S1| for the rising basis) is unchanged.  The kept weights are
    # d C(n, j) (-+q)^j for a = p/q, upper sign first kind, beside p^n.
    for k, a in itertools.product((-2, 3), (F(3, 7), F(-5, 2))):
        group = identities._Group(k, a, 12)
        p, q = a.numerator, a.denominator
        for hat in (False, True):
            rising, table = not hat, group.factorial(hat)
            for n, member in enumerate(group.members(hat)):
                coeffs, weights, p_n = table[n]
                den = weights[0]
                back = [sum(F(c, den) * (abs if rising else int)(special.stirling1(j, i))
                            for j, c in enumerate(coeffs) if j >= i) for i in range(n + 1)]
                assert Poly(back) == member == (pc_hat_mixed if hat else pc_mixed)(n, k, a)
                assert len(coeffs) == n + 1, (k, a, hat, n)
                assert weights == [den * comb(n, j) * (q if hat else -q) ** j
                                   for j in range(n + 1)], (k, a, hat, n)
                assert p_n == p**n, (k, a, hat, n)


def _monomial_e49_e51(ident, n, k, a, member) -> dict:
    # The result of E49-E52 by the monomial routes: the first failing y^r
    # coefficient of _y_coefficient, or the member at x -+ 1 less the member
    # against n/a times the member one degree down.
    hat = ident in ("E50", "E52")
    if ident in ("E49", "E50"):
        group = identities._Group(k, a, n + 1)
        for r in range(1, n + 1):
            sides = identities._y_coefficient(group, n, hat, r)
            if sides:
                return {"equal": False, "lhs": sides[0], "rhs": sides[1],
                        "note": f"first failing coefficient of y^{r}"}
        return {"equal": True, "lhs": None, "rhs": None, "note": None}
    lhs = member[hat](n, k, a).shifted(1 if hat else -1) - member[hat](n, k, a)
    rhs = member[hat](n - 1, k, a) * (F(n) / a)
    note = ("checked with both difference terms in the second-kind family; the "
            "printed statement drops a hat on the subtracted term") if hat else None
    equal = lhs == rhs
    return {"equal": equal, "lhs": None if equal else lhs, "rhs": None if equal else rhs,
            "note": note}


def test_factorial_slices_fail_where_the_monomial_routes_fail(monkeypatch):
    # E49-E52 compare in the rising (first kind) or falling factorial basis
    # and rebuild their sides in monomials only on a mismatch.  P_2 + 1 moves
    # the j = 2 term of (49)/(50) for n >= 3 and E51/E52's right side at
    # n = 3; x^(2) (first kind) or (x)_2 on P_5 moves every slice reading
    # member 5, from n = 5 on, and E51/E52 at n = 5 and 6.  x^(5) or (x)_5
    # moves only P_5's leading factorial coefficient.
    k, a = 2, F(3, 7)

    def rising(m, step=1):  # x (x + step) ... (x + (m-1) step)
        return functools.reduce(operator.mul, (X + step * i for i in range(m)), Poly((1,)))

    def falling(m):
        return rising(m, -1)

    plants = {
        "lower": (lambda n: int(n == 2), lambda n: int(n == 2)),
        "factorial": (lambda n: rising(2) if n == 5 else 0, lambda n: falling(2) if n == 5 else 0),
        "leading": (lambda n: rising(5) if n == 5 else 0, lambda n: falling(5) if n == 5 else 0),
    }
    from_five = {"E49": range(5, 9), "E50": range(5, 9), "E51": {5, 6}, "E52": {5, 6}}
    failing = {
        "lower": {"E49": range(3, 9), "E50": range(3, 9), "E51": {3}, "E52": {3}},
        "factorial": from_five,
        "leading": from_five,
    }
    for plant, (first, second) in plants.items():
        with monkeypatch.context() as patch:
            member = {False: lambda n, k, a: pc_mixed(n, k, a) + first(n),
                      True: lambda n, k, a: pc_hat_mixed(n, k, a) + second(n)}
            patch.setattr(identities, "fam", SimpleNamespace(
                pc_mixed=member[False], pc_hat_mixed=member[True]))
            for ident in ("E49", "E50", "E51", "E52"):
                failed = set()
                for n in range(CATALOGUE[ident].n_min, 9):
                    result = verify(ident, n, k=k, a=a)
                    expected = _monomial_e49_e51(ident, n, k, a, member)
                    assert {name: getattr(result, name) for name in expected} == expected, (
                        plant, ident, n)
                    if not result.equal:
                        failed.add(n)
                assert failed == set(failing[plant][ident]), (plant, ident)

    # On the default grid both routes agree at every (k, a), kind and n.
    for k, a in itertools.product(identities.DEFAULT_GRID.k_values,
                                  identities.DEFAULT_GRID.a_values):
        group = identities._Group(k, a, 13)
        for hat, n in itertools.product((False, True), range(13)):
            by_y = all(identities._y_coefficient(group, n, hat, r) is None
                       for r in range(1, n + 1))
            assert identities._slices_hold(group, n, hat, n) == by_y, (k, a, hat, n)
            if n:
                members = group.members(hat)
                by_shift = (members[n].shifted(1 if hat else -1) - members[n]
                            == members[n - 1] * (F(n) / a))
                assert identities._slices_hold(group, n, hat, 1) == by_shift, (k, a, hat, n)


def test_audit_statuses():
    for ident in ("E54", "E55", "T6", "E60", "E61", "E67"):
        r = verify(ident, 3, k=1, a=F(2)) if ident != "E67" else verify(
            ident, 3, k=1, a=F(2), m=2
        )
        assert r.equal and r.as_printed and r.derivation_form, ident
    r62 = verify("E62", 3, k=1, a=F(2))
    assert r62.equal and not r62.as_printed and r62.derivation_form
    r7 = verify("T7", 4, m=2, k=1, a=F(2))
    assert r7.equal and not r7.as_printed and r7.derivation_form


def test_verify_grid_singleton():
    results = verify_grid(("T1",), 0, SINGLETON)
    assert len(results) == 1
    assert results[0].equal


def test_verify_grid_ordering_is_deterministic():
    # Identities and every axis are given out of order; T9 has all four
    # axes, and T7 has m, which sorts before n.
    grid = Grid(
        a_values=(F(2), F(-1, 2), F(1)), k_values=(1, -1, 0), s_values=(2, 0),
        lam_values=(F(2), F(-1)),
    )
    twice = [verify_grid(("T9", "P2", "T7", "T1"), 3, grid) for _ in range(2)]
    keys = [
        [(r.identity, tuple(sorted(r.params.items())), r.n) for r in run]
        for run in twice
    ]
    assert keys[0] == keys[1]
    assert keys[0] == sorted(keys[0])
    # T1 and P2: 9 points x 4 degrees; T7: 9 x 6 (n, m) pairs; T9: 36 x 4.
    assert len(set(keys[0])) == len(keys[0]) == 2 * 36 + 54 + 144
    # Nine (k, a) groups across two worker processes: the same results, in
    # the same order.
    assert verify_grid(("T9", "P2", "T7", "T1"), 3, grid, jobs=2) == twice[0]
    # An encoder gets each task's results where the task ran and the caller
    # gets one encoded item per task, in the same order at any jobs: here
    # T1, P2 and T9 contribute one task per point of their axes, T7 one per
    # (k, a) with its (m, n) pairs.
    for jobs in (1, 2):
        sizes = verify_grid(("T9", "P2", "T7", "T1"), 3, grid, jobs=jobs, encode=len)
        assert sizes == [4] * 9 + [4] * 9 + [6] * 9 + [4] * 36


def test_parameter_domain_errors():
    with pytest.raises(ParameterError):
        verify("NOPE", 1, k=1, a=1)
    with pytest.raises(ParameterError):
        verify("T1", 1, k=1)  # missing a
    with pytest.raises(ParameterError):
        verify("T1", 1, k=1, a=1, s=2)  # s not an axis of T1
    with pytest.raises(ParameterError):
        verify("T1", 1, k=1, a=0)
    with pytest.raises(ParameterError):
        verify("T9", 1, k=1, a=1, s=1, lam=1)
    with pytest.raises(ParameterError):
        verify("T5", 0, k=1, a=1)  # below the identity's n floor
    with pytest.raises(ParameterError):
        verify("T7", 2, m=3, k=1, a=1)  # m out of range
    with pytest.raises(ParameterError):
        verify("T7", 2, m=0, k=1, a=1)
    with pytest.raises(ParameterError):
        verify("T1", 1, k=F(1, 2), a=1)  # fractional k
    with pytest.raises(ParameterError):
        verify("T1", 2.0, k=1, a=1)  # n not an integer
    with pytest.raises(ParameterError):
        t3_polynomial(2, 1, 0)
    with pytest.raises(ParameterError):
        t3_polynomial(-1, 1, 1)
    with pytest.raises(ParameterError):
        t3_polynomial(2, F(1, 2), 1)
    with pytest.raises(ParameterError):
        verify_grid(("T1", "NOPE"), 1, SINGLETON)
    with pytest.raises(ParameterError):
        verify_grid(("T1",), 1, SINGLETON, jobs=0)
    with pytest.raises(ParameterError):
        verify("T1", True, k=1, a=1)  # bool is an int subclass, not a degree
    with pytest.raises(ParameterError):
        verify_grid(("T1",), True, SINGLETON)
    with pytest.raises(ParameterError):
        verify_grid(("T1",), 1, SINGLETON, jobs=1.5)
    with pytest.raises(ParameterError):
        verify_grid(("T1",), 1, SINGLETON, jobs=True)
    # Parameter values are ints or Fractions: not bool, float or str.
    for params in (
        {"k": True, "a": True, "s": True}, {"k": 1, "a": 1, "s": False},
        {"k": 1.0, "a": 1, "s": 1}, {"k": 1, "a": 0.5, "s": 1}, {"k": 1, "a": "1", "s": 1},
    ):
        with pytest.raises(ParameterError):
            verify("T8", 2, **params)
    with pytest.raises(ParameterError):
        verify("T7", 2, m=True, k=1, a=1)
    with pytest.raises(ParameterError):
        verify("T9", 1, k=1, a=1, s=1, lam=False)
    with pytest.raises(ParameterError):
        verify_grid(("T8",), 2, Grid((True,), (True,), (True,), (F(2),)))


def count_checks(monkeypatch) -> list:
    # Every check calls one catalogue checker; record each call.
    calls = []
    for ident, info in list(CATALOGUE.items()):
        def counted(*args, _checker=info.checker, **kw):
            calls.append(args)
            return _checker(*args, **kw)

        monkeypatch.setitem(CATALOGUE, ident, dataclasses.replace(info, checker=counted))
    return calls


def test_audited_notes_each_outcome():
    lhs, other = Poly((1,)), Poly((2,))
    cases = [
        (lhs, lhs, True, True, "holds as printed and in derivation form"),
        (other, lhs, False, True, "printed form fails; derivation form holds"),
        (lhs, other, True, False, "holds as printed; derivation form fails"),
        (other, other, False, False, "both forms fail"),
    ]
    for printed, derived, as_printed, derivation, note in cases:
        out = identities._audited(lhs == printed, lhs == derived, lambda: (lhs, derived))
        assert out["note"] == note
        assert (out["as_printed"], out["derivation_form"]) == (as_printed, derivation)
        assert out["equal"] == (as_printed or derivation)


def test_verify_grid_rejects_unknown_id_before_checking(monkeypatch):
    # T9 sorts before ZZ; the unknown name must stop the sweep before any
    # check runs, not after T9's whole grid.
    calls = count_checks(monkeypatch)
    with pytest.raises(ParameterError, match="ZZ"):
        verify_grid(("T9", "ZZ"), 10)
    assert calls == []
    # The counter sees the checks of a valid grid.
    results = verify_grid(("T9",), 1, SINGLETON)
    assert len(calls) == len(results) == 2


@pytest.mark.parametrize(
    "axis, values",
    [("lam_values", (F(1),)), ("s_values", (-1,)), ("n_max", -3), ("n_max", 2.0)],
)
def test_verify_grid_rejects_out_of_domain_value_before_checking(monkeypatch, axis, values):
    # Only E74, E77, T8 and T9 read s or lam, and E30 sorts before them all:
    # the bad value must stop the sweep before any identity is checked.  So
    # must an n_max that is negative or not an integer.
    calls = count_checks(monkeypatch)
    if axis == "n_max":
        n_max, grid = values, SINGLETON
    else:
        n_max, grid = 3, dataclasses.replace(SINGLETON, **{axis: values})
    with pytest.raises(ParameterError):
        verify_grid(ALL_IDS, n_max, grid)
    assert calls == []
    results = verify_grid(ALL_IDS, 3, SINGLETON)
    assert len(calls) == len(results) > 0


def test_verify_grid_leaves_unread_axes_unchecked():
    results = verify_grid(("T1",), 1, dataclasses.replace(SINGLETON, s_values=(-1,)))
    assert len(results) == 2 and all(r.equal for r in results)


def test_parameters_are_canonicalized():
    result = verify("T1", 2, k=1, a=F(6, 2))
    assert result.params["a"] == F(3) and result.params["a"].denominator == 1
    assert result.equal
    assert result.params == verify("T1", 2, k=1, a=3).params


def test_counterexample_path(monkeypatch):
    # No catalogued identity fails, so swap T1's checker for one whose right
    # side is perturbed and follow the mismatch through verify and the CLI.
    def perturbed(group, n):
        lhs = pc_mixed(n, group.k, group.a)
        return _plain(lhs, lhs + 1)

    info = dataclasses.replace(CATALOGUE["T1"], checker=perturbed)
    monkeypatch.setitem(CATALOGUE, "T1", info)

    r = verify("T1", 1, k=1, a=1)
    assert not r.equal
    assert r.lhs == pc_mixed(1, 1, 1) and r.rhs == r.lhs + 1

    # Two values of a make two (k, a) groups, so --jobs 2 runs the patched
    # checker in worker processes.
    args = ("verify", "--ids", "T1", "--n-max", "1", "--a", "1,2", "--k", "1")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    texts = []
    for jobs in ("1", "2"):
        result = CliRunner().invoke(main, [*args, "--jobs", jobs, "--format", "json"])
        assert result.exit_code == 1
        results = json.loads(result.output)["results"]
        assert [entry["equal"] for entry in results] == [False] * 4
        entry = results[1]
        assert entry["params"] == {"a": "1", "k": 1} and entry["n"] == 1
        assert entry["lhs"] == [[-1, 2], [-1, 1]]
        assert entry["rhs"] == [[1, 2], [-1, 1]]

        result = CliRunner().invoke(main, [*args, "--jobs", jobs])
        assert result.exit_code == 1
        assert "first counterexample:" in result.output
        texts.append(result.output)
    assert texts[0] == texts[1]
    # The text report is summed from per-task tallies; its bytes are pinned.
    digest = hashlib.sha256(texts[0].encode()).hexdigest()
    assert digest == "c29912ec594c5648c4e46748448b57cc8f75e6cb7dbb8cd022dcdd0b132f00f9"


def test_worker_error_reaches_the_caller(monkeypatch):
    # A checker that raises inside a worker process raises from verify_grid,
    # and the pool is gone by then.
    def failing(group, n):
        if group.a == 2:
            raise ValueError("checker failed")
        return _plain(pc_mixed(n, group.k, group.a), pc_mixed(n, group.k, group.a))

    info = dataclasses.replace(CATALOGUE["T1"], checker=failing)
    monkeypatch.setitem(CATALOGUE, "T1", info)
    grid = dataclasses.replace(SINGLETON, a_values=(F(1), F(2), F(3)))
    with pytest.raises(ValueError, match="checker failed"):
        verify_grid(("T1",), 2, grid, jobs=2)
    assert multiprocessing.active_children() == []


def test_grid_reads_members_and_stirling_rows_once_per_group(monkeypatch):
    # The checks at one (k, a) share one group.  Each mixed member is looked
    # up at most twice, by its own group and as a k-1 member by the group of
    # k+1, and no checker reads the Stirling table.
    grid = dataclasses.replace(SINGLETON, k_values=(1, 2))
    # The number tables read Stirling rows the first time they grow; fill
    # every shared table first, so only the checkers' own reads are counted.
    verify_grid(ALL_IDS, 4, grid)
    lookups = collections.Counter()
    for name in ("pc_mixed", "pc_hat_mixed"):
        def counted(n, k, a, _name=name, _lookup=getattr(families, name)):
            lookups[_name, k, a, n] += 1
            return _lookup(n, k, a)

        monkeypatch.setattr(families, name, counted)
    running, stirling_reads = [], []

    def grown(store, key, n, extend, _grown=special.grown):
        if running and store is special._STIRLING:
            stirling_reads.append(n)
        return _grown(store, key, n, extend)

    monkeypatch.setattr(special, "grown", grown)
    for ident, info in list(CATALOGUE.items()):
        def flagged(*args, _checker=info.checker, **kw):
            running.append(True)
            try:
                return _checker(*args, **kw)
            finally:
                running.pop()

        monkeypatch.setitem(CATALOGUE, ident, dataclasses.replace(info, checker=flagged))
    assert all(r.equal for r in verify_grid(ALL_IDS, 4, grid))
    assert lookups and max(lookups.values()) <= 2
    assert stirling_reads == []


def test_notes_present_for_special_cases():
    assert "hat" in verify("E52", 1, k=0, a=1).note
    assert verify("T7", 1, m=1, k=2, a=1).note


def test_every_identity_has_catalogue_metadata():
    for ident in ALL_IDS:
        info = CATALOGUE[ident]
        assert info.statement and info.strategy and info.location
        assert info.tier in ("core", "audit")
        assert all(axis in ("k", "a", "s", "lam", "m") for axis in info.axes)
