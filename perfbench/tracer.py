"""Span tracer that wraps pcmix's public functions from outside the package.

``install`` replaces each traced function at every binding it is looked up
through: the defining module, every other ``pcmix`` module or the package
that re-exports it, and every class attribute that aliases it (for example
``Poly.__rmul__ = Poly.__mul__``).  ``src/`` is left untouched.

Each call becomes a span with a parent.  Self time is the span's duration
minus the time its direct child spans cover; calls run on one thread, so
children never overlap.  Spans of the coarse layers (cli, identities,
families, sheffer) are kept one by one, with parent ids, and written out at
the end.  The kernel layers (poly, series, special) run millions of times,
so their spans are folded into per-name totals as they close.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
from time import perf_counter

# Layers whose spans are kept individually; the rest are aggregated.
KEPT_LAYERS = ("cli", "identities", "families", "sheffer")

POLY_METHODS = (("poly.mul", "__mul__"), ("poly.add", "__add__"),
                ("poly.compose", "compose"), ("poly.eval", "__call__"))
SERIES_METHODS = (("series.mul", "__mul__"), ("series.compose", "compose"),
                  ("series.egf", "egf_coefficient"), ("series.inverse", "inverse"),
                  ("series.revert", "revert"))
SERIES_CTORS = ("binomial_pow", "log1p_scaled", "exp_series", "exp_neg_series", "exp_xt")
MODULE_FUNCTIONS = (
    ("special", "special.stirling", ("stirling1", "stirling2")),
    ("special", "special.numbers",
     ("cauchy_first", "cauchy_second", "bernoulli_order", "frobenius_number")),
    ("special", "special.factorial_poly", ("falling_poly", "rising_poly")),
    ("sheffer", "sheffer.recurrence", ("recurrence_next",)),
    ("sheffer", "sheffer.connection", ("connection_coefficients",)),
    ("sheffer", "sheffer.operator", ("operator_apply",)),
    ("identities", "identities.verify", ("verify",)),
    ("identities", "identities.grid", ("verify_grid",)),
)
FAMILIES = ("poisson_charlier", "poly_cauchy_first", "poly_cauchy_second",
            "bernoulli_poly", "frobenius_euler", "pc_mixed", "pc_hat_mixed")
GF_BUILDERS = tuple(f"{name}_series" for name in
                    ("poisson_charlier", "poly_cauchy_first", "poly_cauchy_second",
                     "bernoulli", "frobenius_euler", "pc_mixed", "pc_hat_mixed"))


def _order_arg(args, kwargs) -> int:
    return kwargs["order"] if "order" in kwargs else args[-1]


class Tracer:
    """In-memory spans and per-name totals for one traced process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, parent_id, name, start_s, end_s)
        self.stack: list[list] = []  # open frames: [child_s, kept_id, lookup]
        self.ids = itertools.count(1)
        self.ctor_orders: list[int] = []
        self.gf_orders: list[int] = []
        self.lookups = 0
        self.lookup_misses = 0
        self.max_n: dict[tuple, int] = {}  # family key -> highest n requested
        self.built: dict[tuple, int] = {}  # family key -> sum of orders built
        self.patched: dict[str, int] = {}  # span name -> bindings replaced

    def wrap(self, name: str, fn, on_enter=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids = self.stack, self.spans, self.ids
        keep = name.split(".")[0] in KEPT_LAYERS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else 0
            frame = [0.0, next(ids) if keep else parent_id, None]
            if on_enter is not None:
                on_enter(frame, args, kwargs)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = end - start
                stat[0] += 1
                stat[1] += span
                stat[2] += span - frame[0]
                if parent is not None:
                    parent[0] += span
                if keep:
                    spans.append((frame[1], parent_id, name, start, end))

        return functools.wraps(fn)(traced)

    # -- hooks for the order and cache counters --------------------------------

    def _ctor_enter(self, frame, args, kwargs):
        self.ctor_orders.append(_order_arg(args, kwargs))

    def _lookup_enter(self, family):
        def enter(frame, args, kwargs):
            rest = dict(kwargs)
            n = rest.pop("n") if "n" in rest else args[0]
            key = (family, tuple(args[1:]), tuple(sorted(rest.items())))
            self.lookups += 1
            self.max_n[key] = max(self.max_n.get(key, -1), n)
            frame[2] = [key, False]

        return enter

    def _build_enter(self, frame, args, kwargs):
        order = _order_arg(args, kwargs)
        self.gf_orders.append(order)
        for outer in reversed(self.stack):
            if outer[2] is not None:
                if not outer[2][1]:
                    outer[2][1] = True
                    self.lookup_misses += 1
                key = outer[2][0]
                self.built[key] = self.built.get(key, 0) + order
                return

    # -- results -----------------------------------------------------------------

    def report(self) -> dict:
        built = sum(self.built.values())
        needed = sum(self.max_n[key] + 1 for key in self.built)
        return {
            "stats": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                      for name, s in sorted(self.stats.items())},
            "counters": {
                "series.ctor.order_max": max(self.ctor_orders, default=0),
                "series.ctor.order_sum": sum(self.ctor_orders),
                "families.gf_build.order_sum": sum(self.gf_orders),
                "families.lookups": self.lookups,
                "families.lookup_misses": self.lookup_misses,
                "families.orders_built": built,
                "families.orders_needed": needed,
            },
            "patched": self.patched,
            "spans": self.spans,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(), fh)


def _rebind(tracer: Tracer, name: str, original, wrapped) -> None:
    """Replace ``original`` by ``wrapped`` wherever pcmix can look it up."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "pcmix" or mod_name.startswith("pcmix.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                count += 1
            elif isinstance(value, type) and value.__module__.startswith("pcmix"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, wrapped)
                        count += 1
    if count == 0:
        raise LookupError(f"no binding found for {name}")
    tracer.patched[name] = tracer.patched.get(name, 0) + count


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every pcmix layer."""
    from pcmix import cli, families, identities, poly, series, sheffer, special

    modules = {"special": special, "sheffer": sheffer, "identities": identities}

    def patch(name, original, on_enter=None):
        _rebind(tracer, name, original, tracer.wrap(name, original, on_enter))

    for name, attr in POLY_METHODS:
        patch(name, vars(poly.Poly)[attr])
    for name, attr in SERIES_METHODS:
        patch(name, vars(series.Series)[attr])
    for attr in SERIES_CTORS:
        patch("series.ctor", getattr(series, attr), tracer._ctor_enter)
    patch("special.lif", special.lif_series, tracer._ctor_enter)
    for mod, name, attrs in MODULE_FUNCTIONS:
        for attr in attrs:
            patch(name, getattr(modules[mod], attr))
    patch("sheffer.polynomial", vars(sheffer.ShefferPair)["polynomial"])
    for attr in FAMILIES:
        patch("families.lookup", getattr(families, attr), tracer._lookup_enter(attr))
    for attr in GF_BUILDERS:
        patch("families.gf_build", getattr(families, attr), tracer._build_enter)

    catalogue = identities.CATALOGUE
    for ident, info in list(catalogue.items()):
        checker = tracer.wrap(f"identities.{ident}", info.checker)
        catalogue[ident] = dataclasses.replace(info, checker=checker)
    for command in cli.main.commands.values():
        command.callback = tracer.wrap("cli", command.callback)
    tracer.patched["cli"] = len(cli.main.commands)
    tracer.patched["identities.checkers"] = len(catalogue)
