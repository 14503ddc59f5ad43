"""Command-line surface: coefficient tables, grid verification, catalogue info.

Output is byte-deterministic for fixed flags: fixed key order, fixed row
order, no timestamps.  Exit codes: 0 success, 1 mathematical counterexample,
2 usage error.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import partial

import click

from . import families as fam
from . import special as sp
from .identities import (
    ALL_IDS,
    AUDIT_IDS,
    CATALOGUE,
    CORE_IDS,
    DEFAULT_GRID,
    Grid,
    ParameterError,
    VerificationResult,
    verify_grid,
)
from .poly import Poly


def _parse_rational(text: str) -> Fraction:
    if any(ch in text for ch in ".eE"):
        raise ValueError(text)
    return Fraction(text)


class ParsedType(click.ParamType):
    """Text read by ``parse``; text it cannot read fails as not ``expected``."""

    def __init__(self, parse, name: str, expected: str):
        self.parse, self.name, self.expected = parse, name, expected

    def convert(self, value, param, ctx):
        try:
            return self.parse(str(value))
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not {self.expected}", param, ctx)


def _parse_list(parse, text: str) -> tuple:
    return tuple(map(parse, text.split(",")))


RATIONAL = ParsedType(_parse_rational, "rational", "an exact rational (use integers or p/q)")
RATIONAL_LIST = ParsedType(
    partial(_parse_list, _parse_rational), "rationals", "a comma-separated list of rationals"
)
INT_LIST = ParsedType(partial(_parse_list, int), "integers", "a comma-separated list of integers")

# The deepest degree `table` and `verify` accept.  Costs grow as a power of
# n (a verify group as about n^5), so a larger value is refused before any
# work starts rather than left to run for hours.
N_MAX_CEILING = 40
N_MAX = click.IntRange(0, N_MAX_CEILING)


def _pair(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _param_wire(name: str, value) -> object:
    if name in ("k", "r", "s", "m"):
        return int(value)
    return str(value)


_WIRE_NAMES = {"lam": "lambda"}


_FAMILY_SPECS = {
    "poisson-charlier": (("a",), lambda n, p: fam.poisson_charlier(n, p["a"]).coeffs),
    "poly-cauchy-1": (("k",), lambda n, p: fam.poly_cauchy_first(n, p["k"]).coeffs),
    "poly-cauchy-2": (("k",), lambda n, p: fam.poly_cauchy_second(n, p["k"]).coeffs),
    "bernoulli": (("r",), lambda n, p: fam.bernoulli_poly(n, p["r"]).coeffs),
    "frobenius-euler": (
        ("r", "lambda"),
        lambda n, p: fam.frobenius_euler(n, p["r"], p["lambda"]).coeffs,
    ),
    "pc-mixed": (("k", "a"), lambda n, p: fam.pc_mixed(n, p["k"], p["a"]).coeffs),
    "pc-hat-mixed": (
        ("k", "a"),
        lambda n, p: fam.pc_hat_mixed(n, p["k"], p["a"]).coeffs,
    ),
    "stirling1": ((), lambda n, p: tuple(map(Fraction, sp.stirling_rows(n)[n]))),
    "stirling2": ((), lambda n, p: tuple(map(Fraction, sp.stirling_rows(n, True)[n]))),
    "cauchy1": (("r",), lambda n, p: (sp.cauchy_row(n, p["r"])[n],)),
    "cauchy2": (("r",), lambda n, p: (sp.cauchy_row(n, p["r"], True)[n],)),
}


def _exact_output() -> None:
    # Lifts 3.10.7+'s int-to-str digit cap after parsing, until the context closes.
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit:
        click.get_current_context().call_on_close(partial(sys.set_int_max_str_digits, limit()))
        sys.set_int_max_str_digits(0)


@click.group()
def main():
    """Exact tables and identity verification for the mixed-type polynomial catalogue."""


@main.command()
@click.option("--family", required=True, type=click.Choice(sorted(_FAMILY_SPECS)))
@click.option("--a", type=RATIONAL, default=None, help="rational parameter a (p/q)")
@click.option("--k", type=int, default=None, help="integer Lif index k")
@click.option("--r", type=int, default=None, help="nonnegative order r")
@click.option("--lambda", "lam", type=RATIONAL, default=None, help="rational parameter, != 1")
@click.option(
    "--n-max", "n_max", type=N_MAX, required=True,
    help=f"emit rows n = 0..n-max, at most {N_MAX_CEILING}",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def table(family, a, k, r, lam, n_max, fmt):
    """Emit exact coefficient rows for one family, lowest degree first."""
    _exact_output()
    needed, producer = _FAMILY_SPECS[family]
    given = {"a": a, "k": k, "r": r, "lambda": lam}
    params = {}
    for name in needed:
        if given[name] is None:
            raise click.UsageError(f"family {family!r} needs --{name}")
        params[name] = given[name]
    extras = sorted(
        f"--{name}" for name, value in given.items() if value is not None and name not in needed
    )
    if extras:
        raise click.UsageError(f"family {family!r} does not take {', '.join(extras)}")
    try:
        # Ask for the top row first, so a family is extracted once at order
        # n_max + 1 instead of at every doubled order on the way up.
        producer(n_max, params)
        rows = [
            {"n": n, "coeffs": [_pair(c) for c in producer(n, params)]}
            for n in range(n_max + 1)
        ]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        payload = {
            "family": family,
            "params": {name: _param_wire(name, params[name]) for name in sorted(params)},
            "rows": rows,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        lines = []
        for row in rows:
            cells = [str(row["n"])]
            cells += [f"{num}/{den}" if den != 1 else str(num) for num, den in row["coeffs"]]
            lines.append(",".join(cells))
        click.echo("\n".join(lines))


def _resolve_ids(spec: str) -> tuple[str, ...]:
    named = {"core": CORE_IDS, "audit": AUDIT_IDS, "all": ALL_IDS}
    if spec in named:
        return named[spec]
    ids = tuple(part.strip() for part in spec.split(",") if part.strip())
    if not ids:
        raise click.UsageError("--ids must name identities or one of core, audit, all")
    return ids


def _usable_cpus() -> int:
    """CPUs this process may run on: the default and the ceiling of --jobs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _params_text(params: dict) -> str:
    return ", ".join(
        f"{_WIRE_NAMES.get(name, name)}={value}" for name, value in sorted(params.items())
    )


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _json_poly(p: Poly) -> str:
    # Each [num, den] pair one value per line, at the depth of lhs and rhs.
    pairs = ",\n".join(
        f"        [\n          {c.numerator},\n          {c.denominator}\n        ]"
        for c in p.coeffs
    )
    return f"[\n{pairs}\n      ]" if pairs else "[]"


def _json_entries(results: list[VerificationResult]) -> str:
    """The entries of ``results`` in the report's results list, byte for
    byte as json.dumps(report, indent=2) prints them there: each indented
    by 4, joined by commas, without the list's brackets.  Keys come in the
    order id, n, params, equal, as_printed and derivation_form, lhs and rhs,
    note, each only when set."""
    quote = json.encoder.encode_basestring_ascii  # the C escaper of json.dumps
    entries = []
    point = None
    for r in results:
        if (r.identity, r.params) != point:
            # Within a task only m changes the point, between runs of n.
            point = (r.identity, r.params)
            fields = []
            for name, value in sorted(r.params.items()):
                value = _param_wire(name, value)
                value = quote(value) if isinstance(value, str) else value
                fields.append(f"        {quote(_WIRE_NAMES.get(name, name))}: {value}")
            params = "{\n" + ",\n".join(fields) + "\n      }" if fields else "{}"
            head = f'    {{\n      "id": {quote(r.identity)},\n      "n": '
            middle = f',\n      "params": {params},\n      "equal": '
        parts = [head, str(r.n), middle, _JSON_LITERALS[r.equal]]
        if r.as_printed is not None:
            parts += [',\n      "as_printed": ', _JSON_LITERALS[r.as_printed],
                      ',\n      "derivation_form": ', _JSON_LITERALS[r.derivation_form]]
        if r.lhs is not None:
            parts += [',\n      "lhs": ', _json_poly(r.lhs), ',\n      "rhs": ', _json_poly(r.rhs)]
        if r.note:
            parts += [',\n      "note": ', quote(r.note)]
        parts.append("\n    }")
        entries.append("".join(parts))
    return ",\n".join(entries)


def _task_report(results: list[VerificationResult], as_json: bool) -> tuple | None:
    """(identity, checked, equal, as printed, derivation form, first failure
    lines or None, JSON block or None) of one task, or None when it checked
    nothing; it runs in the worker that checked the task.  The JSON block,
    made when ``as_json``, is the task's ``_json_entries``."""
    if not results:
        return None
    first = next((r for r in results if not r.equal), None)
    failure = first and (
        f"  id={first.identity} n={first.n} {_params_text(first.params)}",
        f"  lhs = {first.lhs}",
        f"  rhs = {first.rhs}",
    )
    return (
        results[0].identity,
        len(results),
        sum(r.equal for r in results),
        sum(bool(r.as_printed) for r in results),
        sum(bool(r.derivation_form) for r in results),
        failure,
        _json_entries(results) if as_json else None,
    )


@main.command("verify")
@click.option("--ids", default="core", help="comma-separated ids, or core/audit/all")
@click.option("--n-max", "n_max", type=N_MAX, default=10, help=f"0 to {N_MAX_CEILING}")
@click.option("--a", "a_values", type=RATIONAL_LIST, default=None, help="grid override")
@click.option("--k", "k_values", type=INT_LIST, default=None, help="grid override")
@click.option("--s", "s_values", type=INT_LIST, default=None, help="grid override")
@click.option("--lambda", "lam_values", type=RATIONAL_LIST, default=None, help="grid override")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option(
    "--jobs", type=int, default=None,
    help="worker processes, 1 to the usable CPU count (the default); same output for any value",
)
def verify_command(ids, n_max, a_values, k_values, s_values, lam_values, fmt, jobs):
    """Run identity verification over a parameter grid; exact, zero tolerance."""
    _exact_output()
    id_list = _resolve_ids(ids)
    ceiling = _usable_cpus()
    if jobs is None:
        jobs = ceiling
    elif not 1 <= jobs <= ceiling:
        raise click.UsageError(f"--jobs must be between 1 and {ceiling} (usable CPUs), got {jobs}")
    grid = Grid(
        a_values=a_values or DEFAULT_GRID.a_values,
        k_values=k_values or DEFAULT_GRID.k_values,
        s_values=s_values or DEFAULT_GRID.s_values,
        lam_values=lam_values or DEFAULT_GRID.lam_values,
    )
    encode = partial(_task_report, as_json=fmt == "json")
    try:
        tasks = [t for t in verify_grid(id_list, n_max, grid, jobs=jobs, encode=encode) if t]
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    counts = {ident: [0, 0, 0, 0] for ident in id_list}
    first = None
    for ident, *numbers, failure, _ in tasks:
        counts[ident] = [x + y for x, y in zip(counts[ident], numbers)]
        first = first or failure
    checked = sum(total for total, *_ in counts.values())
    failed = checked - sum(ok for _, ok, *_ in counts.values())
    if fmt == "json":
        grid_wire = {
            "ids": list(id_list),
            "n_max": n_max,
            "a": [str(v) for v in grid.a_values],
            "k": list(grid.k_values),
            "s": list(grid.s_values),
            "lambda": [str(v) for v in grid.lam_values],
        }
        # The bytes of json.dumps(payload, indent=2), with the results list
        # joined from the tasks' blocks; a task with no checks adds nothing.
        body = ",\n".join(block for *_, block in tasks)
        results = f"[\n{body}\n  ]" if body else "[]"
        head = json.dumps({"grid": grid_wire}, indent=2)[:-2]
        tail = json.dumps({"summary": {"checked": checked, "failed": failed}}, indent=2)[2:]
        click.echo(f'{head},\n  "results": {results},\n{tail}')
    else:
        lines = []
        for ident, (total, ok, ap, df) in counts.items():
            if CATALOGUE[ident].tier == "audit":
                lines.append(
                    f"{ident}: {ok}/{total} verified "
                    f"(as printed {ap}/{total}, derivation form {df}/{total})"
                )
            else:
                lines.append(f"{ident}: {ok}/{total} equal")
        lines.append(f"summary: checked {checked}, failed {failed}")
        if first:
            lines += ["first counterexample:", *first]
        click.echo("\n".join(lines))
    if failed:
        sys.exit(1)


_DOMAIN_TEXT = {
    "k": "k any integer",
    "a": "a nonzero rational",
    "s": "s integer >= 0",
    "lam": "lambda rational, != 1",
    "m": "m integer with 1 <= m <= n",
}


@main.command()
@click.argument("identity_id")
def describe(identity_id):
    """Show one catalogue entry: statement location, domain, strategy."""
    info = CATALOGUE.get(identity_id)
    if info is None:
        raise click.UsageError(f"unknown identity {identity_id!r}")
    domain = [f"n >= {info.n_min}"]
    domain += [_DOMAIN_TEXT[axis] for axis in info.axes]
    lines = [
        f"{info.identity}  [{info.tier}]",
        f"  statement: {info.statement}",
        f"  stated at: {info.location}",
        f"  domain:    {'; '.join(domain)}",
        f"  strategy:  {info.strategy}",
    ]
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
