import contextlib
import dataclasses
import hashlib
import json
import re
import sys
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from pcmix import cli
from pcmix.cli import main
from pcmix.families import (
    bernoulli_poly,
    frobenius_euler,
    pc_hat_mixed,
    pc_mixed,
    poisson_charlier,
    poly_cauchy_first,
    poly_cauchy_second,
)
from pcmix.identities import ALL_IDS, CATALOGUE, DEFAULT_GRID, VerificationResult, verify_grid
from pcmix.poly import Poly


def run_cli(*args):
    return CliRunner().invoke(main, args)


def test_table_pc_mixed_example():
    result = run_cli(
        "table", "--family", "pc-mixed", "--k", "1", "--a", "1",
        "--n-max", "1", "--format", "json",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["family"] == "pc-mixed"
    assert payload["params"] == {"a": "1", "k": 1}
    assert payload["rows"][1] == {"n": 1, "coeffs": [[-1, 2], [-1, 1]]}


def test_table_stirling_triangle_example():
    result = run_cli("table", "--family", "stirling1", "--n-max", "3")
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert rows[3]["coeffs"] == [[0, 1], [2, 1], [-3, 1], [1, 1]]


def test_table_bernoulli_single_row_example():
    result = run_cli("table", "--family", "bernoulli", "--r", "1", "--n-max", "0")
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert rows == [{"n": 0, "coeffs": [[1, 1]]}]


def test_table_csv_format():
    result = run_cli(
        "table", "--family", "pc-mixed", "--k", "1", "--a", "1",
        "--n-max", "1", "--format", "csv",
    )
    assert result.exit_code == 0
    assert result.output == "0,1\n1,-1/2,-1\n"


def test_table_usage_errors_exit_2():
    result = run_cli("table", "--family", "nope", "--n-max", "2")
    assert result.exit_code == 2
    assert "'nope' is not one of" in result.output and "'poisson-charlier'" in result.output
    result = run_cli("table", "--family", "poisson-charlier", "--a", "1/0", "--n-max", "2")
    assert result.exit_code == 2
    assert "'1/0' is not an exact rational (use integers or p/q)" in result.output
    assert run_cli("table", "--family", "pc-mixed", "--n-max", "2").exit_code == 2
    assert (
        run_cli(
            "table", "--family", "stirling1", "--n-max", "2", "--a", "2"
        ).exit_code
        == 2
    )
    assert (
        run_cli(
            "table", "--family", "pc-mixed", "--k", "1", "--a", "0", "--n-max", "1"
        ).exit_code
        == 2
    )
    assert (
        run_cli(
            "table", "--family", "pc-mixed", "--k", "1", "--a", "0.5", "--n-max", "1"
        ).exit_code
        == 2
    )
    assert run_cli("table", "--family", "stirling1", "--n-max", "-1").exit_code == 2


def test_table_output_is_byte_deterministic():
    args = ("table", "--family", "pc-hat-mixed", "--k", "-2", "--a", "3/7", "--n-max", "4")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.output.encode() == second.output.encode()


FAMILY_CASES = [
    ("poisson-charlier", {"--a": "3/7"}, lambda n: poisson_charlier(n, F(3, 7))),
    ("poly-cauchy-1", {"--k": "2"}, lambda n: poly_cauchy_first(n, 2)),
    ("poly-cauchy-2", {"--k": "-1"}, lambda n: poly_cauchy_second(n, -1)),
    ("bernoulli", {"--r": "2"}, lambda n: bernoulli_poly(n, 2)),
    (
        "frobenius-euler",
        {"--r": "1", "--lambda": "5/3"},
        lambda n: frobenius_euler(n, 1, F(5, 3)),
    ),
    ("pc-mixed", {"--k": "1", "--a": "2"}, lambda n: pc_mixed(n, 1, F(2))),
    ("pc-hat-mixed", {"--k": "0", "--a": "-5/2"}, lambda n: pc_hat_mixed(n, 0, F(-5, 2))),
]


@pytest.mark.parametrize("family,flags,member", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_table_json_round_trip_evaluation(family, flags, member):
    args = ["table", "--family", family, "--n-max", "6"]
    for flag, value in flags.items():
        args += [flag, value]
    result = run_cli(*args)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    for row in payload["rows"]:
        value = sum(F(num, den) * F(2) ** i for i, (num, den) in enumerate(row["coeffs"]))
        assert value == member(row["n"])(F(2))


def test_verify_single_identity_exit_0():
    result = run_cli("verify", "--ids", "T1", "--n-max", "0")
    assert result.exit_code == 0
    assert "summary: checked 30, failed 0" in result.output


def test_verify_unknown_id_exit_2():
    # verify_grid refuses an unknown id before any check runs.  It accepts an
    # empty id list, so the command refuses that one itself.
    result = run_cli("verify", "--ids", "T1,XX")
    assert result.exit_code == 2
    assert "unknown identity 'XX'" in result.output
    result = run_cli("verify", "--ids", ",")
    assert result.exit_code == 2
    assert "--ids must name identities or one of core, audit, all" in result.output


def test_verify_bad_grid_value_exit_2():
    result = run_cli("verify", "--ids", "T1", "--n-max", "1", "--k", "1,x")
    assert result.exit_code == 2
    assert "'1,x' is not a comma-separated list of integers" in result.output
    result = run_cli("verify", "--ids", "T1", "--n-max", "1", "--a", "1,1/0")
    assert result.exit_code == 2
    assert "'1,1/0' is not a comma-separated list of rationals" in result.output
    assert run_cli("verify", "--ids", "T1", "--n-max", "1", "--a", "0").exit_code == 2
    assert run_cli("verify", "--ids", "T9", "--n-max", "1", "--lambda", "1").exit_code == 2


def test_verify_rejects_repeated_ids_and_grid_values():
    # A repeated identity or grid value would check the same points twice and
    # inflate the summary count.
    assert run_cli("verify", "--ids", "T1,T1", "--n-max", "2").exit_code == 2
    assert run_cli("verify", "--ids", "T1", "--n-max", "2", "--a", "1,2/2").exit_code == 2
    assert run_cli("verify", "--ids", "T1", "--n-max", "2", "--k", "0,1,0").exit_code == 2
    result = run_cli("verify", "--ids", "T1", "--n-max", "2", "--a", "1,2")
    assert result.exit_code == 0
    assert "summary: checked 36, failed 0" in result.output


def test_verify_json_report_fields():
    result = run_cli(
        "verify", "--ids", "E62,T7", "--n-max", "3",
        "--a", "2", "--k", "1", "--format", "json",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["grid"]["ids"] == ["E62", "T7"]
    assert payload["summary"]["failed"] == 0
    for entry in payload["results"]:
        assert entry["equal"] is True
        assert "as_printed" in entry and "derivation_form" in entry
        assert entry["derivation_form"] is True
    assert any(not entry["as_printed"] for entry in payload["results"])


def test_verify_text_report_shows_audit_split():
    result = run_cli("verify", "--ids", "E62", "--n-max", "2", "--a", "1", "--k", "1")
    assert result.exit_code == 0
    assert "as printed 0/2, derivation form 2/2" in result.output


def test_verify_output_is_byte_deterministic():
    args = (
        "verify", "--ids", "T1,E30", "--n-max", "3",
        "--a", "1,3/7", "--k", "-1,2", "--format", "json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.output.encode() == second.output.encode()


def test_verify_all_output_bytes_are_pinned(monkeypatch):
    # Refactors of the verifiers must not change a note, a status or the
    # result order; the digest pins the whole report byte for byte, in one
    # process and across two workers alike.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for jobs in ("1", "2"):
        result = run_cli(
            "verify", "--ids", "all", "--n-max", "3", "--format", "json", "--jobs", jobs
        )
        assert result.exit_code == 0
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == "128024219284c8e41389e834d66d4c55f15e394c5a53fd747986d21715723816"


def test_verify_jobs_outside_range_exit_2_before_checking(monkeypatch):
    # --jobs runs from 1 to the usable CPU count; anything else is a usage
    # error raised before the grid is touched, so no worker ever starts.
    calls = []
    monkeypatch.setattr(cli, "verify_grid", lambda *args, **kw: calls.append(kw) or [])
    ceiling = cli._usable_cpus()
    for jobs in ("0", "-1", str(ceiling + 1), str(10**6)):
        result = run_cli("verify", "--ids", "T1", "--jobs", jobs)
        assert result.exit_code == 2
        assert "--jobs must be between 1 and" in result.output
    assert calls == []
    assert run_cli("verify", "--ids", "T1", "--jobs", str(ceiling)).exit_code == 0
    assert run_cli("verify", "--ids", "T1").exit_code == 0
    assert len(calls) == 2
    for call in calls:
        assert set(call) == {"jobs", "encode"} and call["jobs"] == ceiling
        assert call["encode"].func is cli._task_report
        assert call["encode"].keywords == {"as_json": False}


def test_n_max_above_ceiling_exit_2_before_any_work(monkeypatch):
    # --n-max runs from 0 to one ceiling for table and verify; a value above
    # it is refused by the parser, so no family is extracted and no grid is
    # checked.  The counters stand in for the work, which never runs here.
    verify_calls, table_calls = [], []
    monkeypatch.setattr(cli, "verify_grid", lambda *args, **kw: verify_calls.append(args) or [])
    monkeypatch.setitem(
        cli._FAMILY_SPECS, "pc-mixed",
        (("k", "a"), lambda n, p: table_calls.append(n) or ()),
    )
    ceiling = cli.N_MAX_CEILING
    assert ceiling >= 40  # every pinned and benchmarked degree stays valid
    for n_max in (str(ceiling + 1), str(10**9), "-1"):
        result = run_cli("verify", "--ids", "T1", "--n-max", n_max)
        assert result.exit_code == 2
        assert "--n-max" in result.output
        result = run_cli("table", "--family", "pc-mixed", "--k", "1", "--a", "1", "--n-max", n_max)
        assert result.exit_code == 2
        assert "--n-max" in result.output
    assert verify_calls == table_calls == []
    assert run_cli("verify", "--ids", "T1", "--n-max", str(ceiling)).exit_code == 0
    assert [args[1] for args in verify_calls] == [ceiling]
    args = ("table", "--family", "pc-mixed", "--k", "1", "--a", "1", "--n-max", str(ceiling))
    assert run_cli(*args).exit_code == 0
    assert table_calls[0] == ceiling and len(table_calls) == ceiling + 2


@pytest.mark.parametrize("ids, digest", [
    # E51 starts at n = 1: every task is empty and the results list is [].
    ("E51", "0e87baa59215fe6e676ab78bf2a91fdf583c6d5206904e767635a0c3bc83e885"),
    # Empty E51 tasks ahead of T1's leave no blank entry in the list.
    ("E51,T1", "438c27bf9291e781f8b53bf941ec7851f39a3c017e3586db2d0514c3d3d13b2b"),
])
def test_verify_empty_tasks_bytes_are_pinned(monkeypatch, ids, digest):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for jobs in ("1", "2"):
        result = run_cli(
            "verify", "--ids", ids, "--n-max", "0", "--format", "json", "--jobs", jobs
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_verify_parent_encodes_nothing_with_workers(monkeypatch):
    # With --jobs 2 over two (k, a) groups, the workers turn results into
    # report text; the parent only joins it, so it formats no result.  At
    # --jobs 1 the same calls run here, which shows the counter counts.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    calls = []

    def counted(results, _entries=cli._json_entries):
        calls.extend(results)
        return _entries(results)

    monkeypatch.setattr(cli, "_json_entries", counted)
    args = ("verify", "--ids", "T1,E62", "--n-max", "3", "--k", "1,2", "--a", "1",
            "--format", "json")
    outputs = {}
    for jobs in ("2", "1"):
        del calls[:]
        result = run_cli(*args, "--jobs", jobs)
        assert result.exit_code == 0
        outputs[jobs] = (result.output, len(calls))
    assert outputs["2"] == (outputs["1"][0], 0)
    assert outputs["1"][1] == json.loads(outputs["1"][0])["summary"]["checked"] == 14


def result_wire(result):
    # The report entry of one result as the indented json.dumps path built
    # it: the reference the direct writer must match byte for byte.
    def pair(c):
        return [c.numerator, c.denominator]

    def param(name, value):
        return int(value) if name in ("k", "r", "s", "m") else str(value)

    params = {
        {"lam": "lambda"}.get(name, name): param(name, value)
        for name, value in sorted(result.params.items())
    }
    out = {"id": result.identity, "n": result.n, "params": params, "equal": result.equal}
    if result.as_printed is not None:
        out["as_printed"] = result.as_printed
        out["derivation_form"] = result.derivation_form
    if result.lhs is not None:
        out["lhs"] = [pair(c) for c in result.lhs.coeffs]
        out["rhs"] = [pair(c) for c in result.rhs.coeffs]
    if result.note:
        out["note"] = result.note
    return out


def assert_entries_match_json_dumps(results):
    text = json.dumps([result_wire(r) for r in results], indent=2)
    want = "  " + text[2:-2].replace("\n", "\n  ")
    # Compared as line lists, which pytest reports by the first differing
    # line rather than by a full text diff.
    assert cli._json_entries(results).split("\n") == want.split("\n")


def test_json_entries_match_json_dumps_on_every_task():
    tasks = verify_grid(ALL_IDS, 3, DEFAULT_GRID, encode=list)
    assert len(tasks) == 1980
    for results in tasks:
        if results:
            assert_entries_match_json_dumps(results)


def test_json_entries_match_json_dumps_on_failures():
    big = 2**70 + 1
    sides = [Poly((F(-3, 7), F(big, 5), F(-(big**2)))), Poly(), Poly((F(1),))]
    notes = [None, "", 'quote " backslash \\ newline \n end', "non-ASCII \u03bb \u2264 \U0001d4d5"]
    params = [{}, {"k": -2, "a": F(-5, 2)}, {"a": F(3, 7), "k": 1, "m": 2},
              {"a": F(1), "k": 0, "lam": F(5, 3), "s": 3}]
    results = [
        VerificationResult(
            ident, n, dict(point), False, lhs, rhs, note, printed,
            None if printed is None else not printed,
        )
        for ident in ("T7", "E77")
        for n, point in enumerate(params)
        for lhs, rhs in ((sides[0], sides[1]), (sides[1], sides[2]))
        for note in notes
        for printed in (None, True, False)
    ]
    results.append(VerificationResult("T1", 0, {}, True))
    assert_entries_match_json_dumps(results)
    for result in results:
        assert_entries_match_json_dumps([result])


def test_default_grid_output_bytes_are_pinned():
    # The whole default grid (24,060 checks): every identity at every degree
    # up to 10, so a rewritten right side that breaks only past n = 3 shows.
    result = run_cli("verify", "--ids", "all", "--n-max", "10", "--format", "json")
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == "2ffbc4cc8dae9de38f951a71a2b97213d165dd72172fb590e3c65add39911011"


def test_deep_two_group_output_bytes_are_pinned():
    # (k, a) groups past the default grid's degree, where the integer sums of
    # the Appell expansions (T3, T4, T5, T8, T9, E77) carry their largest
    # denominators: two groups up to degree 16, with a k = -1 group whose
    # k-1 members sit at k = -2, and one group up to degree 24.  The
    # recurrence family, the argument-addition, shift and derivative
    # identities, and the identities on the factorial tables and T7/E67,
    # run once more at the --n-max ceiling.
    pins = {
        ("all", "16", "3,-1"): "c0ee1701b12990eae2caef480d18a87d85c0f6e460d7319ef65f0297336a7437",
        ("all", "24", "3"): "a3b8055f860f99b6912856a00639f24c3334dbab25dc33fd7af0371e3d8a85dc",
        ("T6,E60,E61,E62,E54,E55", "40", "3"):
            "a55f1a172c0d4424c7efa815cb2140a19dea77f353f54c0c975b625dd4ac79c0",
        ("E49,E50,E51,E52,E68,E69", "40", "3"):
            "ef48b1cb5d9cc30a6d585765f66fe10e62c2a59c8cefd756dcf206b04e767a29",
        ("T3,T3H,T4,E41,T8,E74,T9,E77,T10,T10H,T7,E67", "40", "3"):
            "8a5193e388ae3902f64cb9c1693f7d8e31c0d272c17e842d4f23bd3853cde136",
    }
    for (ids, n_max, ks), expected in pins.items():
        result = run_cli(
            "verify", "--ids", ids, "--n-max", n_max, "--k", ks, "--a", "-5/2",
            "--format", "json", "--jobs", "1",
        )
        assert result.exit_code == 0
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == expected, (ids, n_max, ks)


def test_table_output_bytes_are_pinned():
    # Deep rows of a mixed family go through every series product of the
    # generating function, and the number families read whole table rows;
    # each digest pins the exact coefficients and layout.
    pins = {
        ("pc-mixed", "--k", "3", "--a", "2"):
            "24bf51d05bab7153ca23a4492ed87642d428aa54ec98a6af57f143d548c62baf",
        ("stirling1",): "f94c5877fa5f61fc02d81732ab1047853e8409abc91f22c616cab14c7a3f3c0f",
        ("stirling2",): "420111992f521ba69178f45b3797a171b903d05cddc335b2489278168bb53178",
        ("cauchy1", "--r", "3"):
            "e87fb7b82e8eeb9fa762313f9961ee5f1d572228e1d5de8fc0760c860487bfe2",
        ("cauchy2", "--r", "2"):
            "58131f0b6928b408637beb1413ce1faf46512207c8602d258f1ab5ed37530f5f",
    }
    for (family, *params), expected in pins.items():
        result = run_cli(
            "table", "--family", family, *params, "--n-max", "40", "--format", "json",
        )
        assert result.exit_code == 0, family
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == expected, family


def _digit_limit():
    # The interpreter's int-to-str digit cap; 0 is none, as before 3.10.7.
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def _no_digit_limit():
    # Reads numbers of any size back from the CLI's output here.
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_table_prints_numbers_past_the_int_digit_limit():
    # poly-cauchy-1 at k = 1000 has coefficients of more than 4,300 digits,
    # the default int-to-str cap: both formats print them in full and exit
    # 0, and the cap is as it was afterwards.  An over-long --k literal
    # still fails as a usage error, since the cap is lifted after parsing.
    limit = _digit_limit()
    args = ("table", "--family", "poly-cauchy-1", "--k", "1000", "--n-max", "10")
    as_json, as_csv = run_cli(*args), run_cli(*args, "--format", "csv")
    assert (as_json.exit_code, as_csv.exit_code) == (0, 0)
    assert _digit_limit() == limit
    assert max(map(len, re.split("[,/\n]", as_csv.output))) > 4300
    if 0 < limit < 4400:
        long_k = run_cli("table", "--family", "poly-cauchy-1", "--k", "1" * 4400, "--n-max", "1")
        assert long_k.exit_code == 2 and "--k" in long_k.output
    with _no_digit_limit():
        expected = [list(poly_cauchy_first(n, 1000).coeffs) for n in range(11)]
        rows = json.loads(as_json.output)["rows"]
        assert [[F(*c) for c in row["coeffs"]] for row in rows] == expected
        lines = [",".join(map(str, [n, *coeffs])) for n, coeffs in enumerate(expected)]
        assert as_csv.output.splitlines() == lines


def test_verify_counterexample_prints_numbers_past_the_int_digit_limit(monkeypatch):
    # A mismatch with a 5,000-digit coefficient on each side is a
    # counterexample (exit 1), reported in full by both formats whether the
    # report is written here or in two workers; the cap is as it was after.
    big = 10**4999
    sides = {"equal": False, "lhs": Poly((big,)), "rhs": Poly((big + 1,))}
    info = dataclasses.replace(CATALOGUE["T1"], checker=lambda group, n: sides)
    monkeypatch.setitem(CATALOGUE, "T1", info)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    limit, digits = _digit_limit(), "1" + "0" * 4998
    for fmt in ("text", "json"):
        for jobs in ("1", "2"):
            result = run_cli("verify", "--ids", "T1", "--n-max", "0", "--k", "1,2", "--a", "1",
                             "--format", fmt, "--jobs", jobs)
            assert result.exit_code == 1, (fmt, jobs)
            assert _digit_limit() == limit
            if fmt == "text":
                assert f"  lhs = {digits}0\n  rhs = {digits}1\n" in result.output, jobs
                continue
            with _no_digit_limit():
                report = json.loads(result.output)
                assert report["summary"] == {"checked": 2, "failed": 2}
                for entry in report["results"]:
                    assert (entry["lhs"], entry["rhs"]) == ([[big, 1]], [[big + 1, 1]]), jobs


def test_describe_known_and_unknown():
    result = run_cli("describe", "T7")
    assert result.exit_code == 0
    assert "(63)" in result.output and "(66)" in result.output
    assert run_cli("describe", "ZZZ").exit_code == 2
    e49 = run_cli("describe", "E49")
    assert e49.exit_code == 0
    assert "coefficient by coefficient" in e49.output  # notes the two-variable strategy
    t1 = run_cli("describe", "T1")
    assert "Theorem 1" in t1.output
