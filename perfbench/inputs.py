"""Seeded inputs for the three benchmark workloads.

Seed 0 reproduces the fixed inputs: the package's ``DEFAULT_GRID`` for
``verify-all``, and the fixed table and pair lists below.  Any other seed
draws each value "like" its seed-0 counterpart: the same sign-free bit
length of numerator and denominator, a random sign.  The work per seed
therefore stays comparable, which keeps run-to-run spread down while the
inputs still change.

The program only ever sees what this module generates: CLI arguments for
the ``pcmix`` command, or the parameter list handed to the library worker.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

VERIFY_N_MAX = 10
TABLE_N_MAX = 40
SHEFFER_ORDER = 24

# Equal to pcmix.identities.DEFAULT_GRID; checked at seed 0 through the
# recorded digest of `pcmix verify --ids all --n-max 10 --format json`, whose
# output echoes the grid.
DEFAULT_A = ("1", "2", "-1", "3/7", "-5/2")
DEFAULT_K = (-2, -1, 0, 1, 2, 3)
DEFAULT_S = (0, 1, 2, 3)
DEFAULT_LAMBDA = ("2", "-1", "1/2", "5/3")
K_RANGE = range(-3, 5)

# Seven polynomial families once each, plus a second pc-mixed.
TABLE_JOBS = (
    ("poisson-charlier", {"a": "3/7"}),
    ("poly-cauchy-1", {"k": 2}),
    ("poly-cauchy-2", {"k": -2}),
    ("bernoulli", {"r": 3}),
    ("frobenius-euler", {"r": 2, "lambda": "5/3"}),
    ("pc-mixed", {"k": 2, "a": "-5/2"}),
    ("pc-hat-mixed", {"k": -1, "a": "3/7"}),
    ("pc-mixed", {"k": 3, "a": "2"}),
)

# (k, a) of the mixed pairs; each is built as mixed_pair and mixed_hat_pair.
SHEFFER_KA = ((3, "2"), (-2, "-1"), (1, "1/2"), (-3, "5/3"))


def _bits_range(m: int) -> tuple[int, int]:
    b = m.bit_length()
    return 1 << (b - 1), (1 << b) - 1


def _like_rational(rng: random.Random, text: str) -> Fraction:
    """A random rational with the bit lengths of ``text``, either sign."""
    value = Fraction(text)
    nums = _bits_range(abs(value.numerator))
    dens = _bits_range(value.denominator)
    while True:
        p, q = rng.randint(*nums), rng.randint(*dens)
        if gcd(p, q) == 1:
            return Fraction(rng.choice((-1, 1)) * p, q)


def _like_int(rng: random.Random, value: int) -> int:
    if value == 0:
        return 0
    return rng.choice((-1, 1)) * rng.randint(*_bits_range(abs(value)))


def _distinct_like(rng: random.Random, texts, forbidden=()) -> list[Fraction]:
    while True:
        values = [_like_rational(rng, t) for t in texts]
        if len(set(values)) == len(values) and not set(values) & set(forbidden):
            return values


def _wire(value: Fraction) -> str:
    return str(value)


def verify_grid(seed: int) -> dict:
    """Grid axes for `pcmix verify`, as CLI strings and integers."""
    if seed == 0:
        return {"a": list(DEFAULT_A), "k": list(DEFAULT_K), "s": list(DEFAULT_S),
                "lambda": list(DEFAULT_LAMBDA)}
    rng = random.Random(f"verify-all/{seed}")
    a = _distinct_like(rng, DEFAULT_A, forbidden=(0,))
    lam = _distinct_like(rng, DEFAULT_LAMBDA, forbidden=(1,))
    k = sorted(rng.sample(K_RANGE, len(DEFAULT_K)))
    return {"a": [_wire(v) for v in a], "k": k, "s": list(DEFAULT_S),
            "lambda": [_wire(v) for v in lam]}


def verify_argv(grid: dict) -> list[str]:
    def joined(values):
        return ",".join(str(v) for v in values)

    return ["verify", "--ids", "all", "--n-max", str(VERIFY_N_MAX), "--format", "json",
            f"--a={joined(grid['a'])}", f"--k={joined(grid['k'])}",
            f"--s={joined(grid['s'])}", f"--lambda={joined(grid['lambda'])}"]


def table_jobs(seed: int) -> list[tuple[str, dict]]:
    """(family, params) for the eight `pcmix table` processes."""
    if seed == 0:
        return [(family, dict(params)) for family, params in TABLE_JOBS]
    rng = random.Random(f"table-deep/{seed}")
    jobs = []
    for family, params in TABLE_JOBS:
        drawn = {}
        for name, value in params.items():
            if name == "k":
                drawn[name] = _like_int(rng, value)
            elif name == "r":
                drawn[name] = rng.randint(*_bits_range(value))
            elif name == "lambda":
                drawn[name] = _wire(_distinct_like(rng, [value], forbidden=(1,))[0])
            else:
                drawn[name] = _wire(_distinct_like(rng, [value], forbidden=(0,))[0])
        jobs.append((family, drawn))
    return jobs


def table_argv(family: str, params: dict) -> list[str]:
    argv = ["table", "--family", family, "--n-max", str(TABLE_N_MAX), "--format", "json"]
    return argv + [f"--{name}={value}" for name, value in params.items()]


def sheffer_pairs(seed: int) -> list[list]:
    """[kind, k, a] for the eight seed-drawn mixed pairs."""
    if seed == 0:
        ka = [(k, a) for k, a in SHEFFER_KA]
    else:
        rng = random.Random(f"sheffer-route/{seed}")
        k = [_like_int(rng, k) for k, _ in SHEFFER_KA]
        a = _distinct_like(rng, [a for _, a in SHEFFER_KA], forbidden=(0,))
        ka = [(kk, _wire(aa)) for kk, aa in zip(k, a)]
    return [[kind, k, a] for k, a in ka for kind in ("mixed", "hat")]
