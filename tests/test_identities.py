import collections
import dataclasses
import hashlib
import json
import multiprocessing
from fractions import Fraction as F
from math import comb
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
from pcmix.poly import Poly
from pcmix.sheffer import connection_coefficients

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


def test_t3_is_independent_route():
    for k, a in ((1, F(1)), (-2, F(3, 7))):
        for n in range(6):
            assert t3_polynomial(n, k, a) == pc_mixed(n, k, a)
            assert t3_polynomial(n, k, a, hat=True) == pc_hat_mixed(n, k, a)
            assert verify("T3", n, k=k, a=a).equal
            assert verify("T3H", n, k=k, a=a).equal


def test_stirling_sum_verifiers_beyond_default_degree():
    # n = 14 lies past the default grid's n_max of 10; the point mixes a
    # negative k, a negative non-integer a, s > 1 and a lambda off the
    # integers.  T7/E67 at m = n reach the empty lowered moment.  The T6,
    # E60 and E61 remainder is read off one series per check, so n = 9, 10
    # and 17 read its coefficients 8, 9 and 16 at orders 9, 10 and 17.
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
    # denominator.  E49/E50 compare every power of y up to y^n.
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
        for name in ("bernoulli_order", "frobenius_number"):
            def perturbed(e, *args, _number=getattr(identities, name)):
                return _number(e, *args) + (e == 3)

            patch.setattr(identities, name, perturbed)
        for ident in ("T5", "E48", "T8", "E74", "T9", "E77"):
            assert not verify(ident, 6, cases[ident]).equal, ident

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


def count_checks(monkeypatch) -> list:
    # Every check calls one catalogue checker; record each call.
    calls = []
    for ident, info in list(CATALOGUE.items()):
        def counted(*args, _checker=info.checker, **kw):
            calls.append(args)
            return _checker(*args, **kw)

        monkeypatch.setitem(CATALOGUE, ident, dataclasses.replace(info, checker=counted))
    return calls


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
