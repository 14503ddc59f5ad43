"""Output checks for the benchmark, in plain ``Fraction`` arithmetic.

Nothing here imports pcmix: each check recomputes what it compares against
from the requested inputs, so a wrong program cannot also bend its oracle.
``check_verify`` and ``check_sheffer`` return the number of failed items and
the problems found; ``check_table`` returns the problems of one table.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

import inputs

# identity -> (axes, n_min), as in pcmix.identities.CATALOGUE.  Kept here so
# that a program that silently drops checks fails the count gate.
AXES_KA = ("k", "a")
CATALOGUE = {
    **{i: (AXES_KA, 0) for i in ("T1", "P2", "E30", "E31", "T3", "T3H", "T4", "E41")},
    **{i: (AXES_KA, 1) for i in ("T5", "E48")},
    **{i: (AXES_KA, 0) for i in ("E49", "E50")},
    **{i: (AXES_KA, 1) for i in ("E51", "E52", "E68", "E69")},
    **{i: (("k", "a", "s"), 0) for i in ("T8", "E74")},
    **{i: (("k", "a", "s", "lambda"), 0) for i in ("T9", "E77")},
    **{i: (AXES_KA, 0) for i in ("T10", "T10H")},
    **{i: (AXES_KA, 1) for i in ("E54", "E55", "T6", "E60", "E61", "E62")},
    **{i: (("m", "k", "a"), 1) for i in ("T7", "E67")},
}
AUDIT_IDS = ("E54", "E55", "T6", "E60", "E61", "E62", "T7", "E67")


def frac(pair) -> Fraction:
    num, den = pair
    if den <= 0 or gcd(num, den) != 1:
        raise ValueError(f"{num}/{den} is not in lowest terms")
    return Fraction(num, den)


def poly(wire) -> list[Fraction]:
    coeffs = [frac(pair) for pair in wire]
    if coeffs and coeffs[-1] == 0:
        raise ValueError("trailing zero coefficient")
    return coeffs


def poly_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expected_checks(grid: dict) -> dict:
    n_max = inputs.VERIFY_N_MAX
    counts = {}
    for ident, (axes, n_min) in CATALOGUE.items():
        combos = 1
        for axis in axes:
            if axis != "m":
                combos *= len(grid[axis])
        per_combo = sum(n if "m" in axes else 1 for n in range(n_min, n_max + 1))
        counts[ident] = combos * per_combo
    return counts


def check_verify(path: str, grid: dict) -> tuple[int, list[str]]:
    """Failed checks in one verify output, or every check if it is malformed."""
    expected = expected_checks(grid)
    total = sum(expected.values())
    with open(path) as fh:
        data = json.load(fh)
    problems = []
    results = data["results"]
    echoed = data["grid"]
    if (sorted(echoed["ids"]) != sorted(CATALOGUE) or echoed["n_max"] != inputs.VERIFY_N_MAX
            or [Fraction(v) for v in echoed["a"]] != [Fraction(v) for v in grid["a"]]
            or echoed["k"] != grid["k"] or echoed["s"] != grid["s"]
            or [Fraction(v) for v in echoed["lambda"]] != [Fraction(v) for v in grid["lambda"]]):
        problems.append("grid echo differs from the requested grid")
    seen: dict[str, int] = {}
    failed = 0
    for r in results:
        seen[r["id"]] = seen.get(r["id"], 0) + 1
        audit_fails = r["id"] in AUDIT_IDS and r.get("derivation_form") is not True
        if audit_fails:
            problems.append(f"{r['id']} n={r['n']} {r['params']}: derivation form fails")
        if audit_fails or not r["equal"]:
            failed += 1
    if seen != expected:
        problems.append(f"per-identity counts differ from the grid shape: {seen}")
    summary = data["summary"]
    if summary != {"checked": total, "failed": sum(1 for r in results if not r["equal"])}:
        problems.append(f"summary {summary} disagrees with {total} expected checks")
    if failed:
        problems.append(f"{failed} checks failed")
    if problems and failed == 0:
        failed = total
    return failed, problems


def leading_coefficient(family: str, params: dict, n: int) -> Fraction:
    """The x^n coefficient each family's generating function implies."""
    if family in ("bernoulli", "frobenius-euler", "poly-cauchy-2"):
        return Fraction(1)
    if family == "poly-cauchy-1":
        return Fraction((-1) ** n)
    a = Fraction(params["a"])
    if family == "pc-mixed":
        return (-1 / a) ** n
    return a ** -n  # poisson-charlier, pc-hat-mixed


# The x-dependence of each family's generating function A(t) * B(t)^x gives a
# relation between consecutive rows that does not involve A(t):
# Appell (B = exp(t)): p_n' = n p_{n-1}; B = (1 + t/a)^(+-1):
# p_n(x +- 1) - p_n(x) = (n/a) p_{n-1}(x).  family -> (shift, uses a)
ROW_RELATIONS = {
    "bernoulli": (0, False), "frobenius-euler": (0, False),
    "poisson-charlier": (1, True), "pc-hat-mixed": (1, True), "poly-cauchy-2": (1, False),
    "pc-mixed": (-1, True), "poly-cauchy-1": (-1, False),
}


def shifted(p, c):
    """p(x + c) by Horner."""
    acc = []
    for coeff in reversed(p):
        acc = poly_add(poly_mul(acc, [Fraction(c), Fraction(1)]), [coeff])
    return acc


def row_relation_holds(family, params, prev, row, n) -> bool:
    shift, uses_a = ROW_RELATIONS[family]
    scale = Fraction(n) / Fraction(params["a"]) if uses_a else Fraction(n)
    if shift == 0:
        lhs = poly_add([i * c for i, c in enumerate(row) if i], [])
    else:
        lhs = poly_add(shifted(row, shift), [-c for c in row])
    return lhs == poly_mul([scale], prev)


def check_table(path: str, family: str, params: dict) -> list[str]:
    with open(path) as fh:
        data = json.load(fh)
    problems = []
    wire = {name: (value if isinstance(value, int) else str(Fraction(value)))
            for name, value in params.items()}
    if data["family"] != family or data["params"] != dict(sorted(wire.items())):
        problems.append(f"header {data['family']} {data['params']} differs from the request")
    rows = data["rows"]
    if [row["n"] for row in rows] != list(range(inputs.TABLE_N_MAX + 1)):
        problems.append("row indices are not 0..n-max")
    prev = None
    for row in rows:
        coeffs = poly(row["coeffs"])
        n = row["n"]
        if len(coeffs) != n + 1 or coeffs[-1] != leading_coefficient(family, params, n):
            problems.append(f"{family} row {n}: degree or leading coefficient is wrong")
        elif n and not row_relation_holds(family, params, prev, coeffs, n):
            problems.append(f"{family} row {n}: the row relation with row {n - 1} fails")
        prev = coeffs
    return problems


def rising(m: int) -> list[Fraction]:
    p = [Fraction(1)]
    for i in range(m):
        p = poly_mul(p, [Fraction(i), Fraction(1)])
    return p


def check_sheffer(path: str, spec: list) -> tuple[int, list[str]]:
    """Failed members: recurrence, generating-function and connection routes."""
    with open(path) as fh:
        data = json.load(fh)
    order = inputs.SHEFFER_ORDER
    pairs = data["pairs"]
    problems = []
    if data["order"] != order or len(pairs) < len(spec):
        return 0, ["pair list or order differs from the request"]
    first_drawn = len(pairs) - len(spec)
    failed = 0
    for index, record in enumerate(pairs):
        polys = [poly(p) for p in record["polys"]]
        routes = [record["chain"]] + ([record.get("family", [])] if index >= first_drawn else [])
        bad = set()
        for route in routes:
            if len(polys) != order or len(route) != order:
                bad.update(range(order))
            bad.update(n for n, (p, q) in enumerate(zip(polys, route)) if poly(q) != p)
        top = order - 1
        expansion = []
        for m, c in enumerate(record["connection"]):
            expansion = poly_add(expansion, poly_mul([frac(c)], rising(m)))
        if expansion != polys[top]:
            bad.add(top)
        if bad:
            problems.append(f"{record['label']}: members {sorted(bad)} disagree across routes")
        failed += len(bad)
    return failed, problems
