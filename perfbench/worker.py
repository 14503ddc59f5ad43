"""Child process for the benchmark: the library workload and traced CLI runs.

    python3 perfbench/worker.py [--trace-out FILE] cli ARGS...
    python3 perfbench/worker.py [--trace-out FILE] sheffer PAIRS_JSON

``cli`` runs the ``pcmix`` command in this process with ARGS.  ``sheffer``
runs the Sheffer route over the fixed pair catalogue plus the given mixed
pairs and prints every result as JSON; run.py checks it afterwards.
With ``--trace-out`` the pcmix layers are wrapped in spans first and the
trace is written to FILE when the run ends.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402


def _wire(poly) -> list:
    return [[c.numerator, c.denominator] for c in poly.coeffs]


def sheffer_route(spec: list) -> dict:
    """Every member, the recurrence chain, the connection onto the rising
    factorials and, for the drawn pairs, the generating-function route."""
    from pcmix import families, sheffer

    order = inputs.SHEFFER_ORDER
    target = families.rising_pair(order)
    pairs = [(pair, None) for pair in families.catalogue_pairs(order)]
    for kind, k, a in spec:
        a = Fraction(a)
        if kind == "mixed":
            pairs.append((families.mixed_pair(k, a, order), (families.pc_mixed, k, a)))
        else:
            pairs.append((families.mixed_hat_pair(k, a, order), (families.pc_hat_mixed, k, a)))
    out = []
    for pair, route in pairs:
        polys = [pair.polynomial(n) for n in range(order)]
        chain = [polys[0]]
        for _ in range(1, order):
            chain.append(sheffer.recurrence_next(pair, chain[-1]))
        top = order - 1
        record = {
            "label": pair.label,
            "polys": [_wire(p) for p in polys],
            "chain": [_wire(p) for p in chain],
            "connection": [[c.numerator, c.denominator]
                           for c in sheffer.connection_coefficients(pair, target, top)],
        }
        if route is not None:
            family, k, a = route
            record["family"] = [_wire(family(n, k, a)) for n in range(order)]
        out.append(record)
    return {"order": order, "pairs": out}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out")
    parser.add_argument("mode", choices=("cli", "sheffer"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import click
    import pcmix.cli

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if args.mode == "cli":
            try:
                pcmix.cli.main.main(args=args.rest, prog_name="pcmix", standalone_mode=False)
            except click.ClickException as exc:
                exc.show()
                return exc.exit_code
            except SystemExit as exc:
                return exc.code or 0
            return 0
        payload = sheffer_route(json.loads(args.rest[0]))
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
        return 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
